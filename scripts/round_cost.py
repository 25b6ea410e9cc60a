"""Time the rounds of breadth-first automation on left combs and sig chains.

`arith.AUTO_SCRIPT` is `id; all(num_eval | plus_eval | add)*`.  On a
left comb of n `+` nodes it runs 3n + 1 rounds, and most goals stand
refused through most of them: each `add` waits for the sums below it.
A round attacks only the goals that may answer differently and moves
only the goals that use the outputs of those that answered, so a round
should cost about the same on both combs.

`dep.AUTO_SCRIPT` on the sig chain `true sig(x. eq(x, x), ...)` of n
levels runs n + 1 rounds: each splits the next level with `sig_i` and
proves the `eq` goal of the level before with `eq_refl`, so it keeps the
number of goals.  A round's outputs are kept with the atoms they answer
and the evidence is put together once, where the run's state is named,
so the terms built per level should be the same on both chains.

`(id; all(num_eval | plus_eval)*); [...]`, with 6n tactics
`num_eval | plus_eval | add` in the list, evaluates the leaves of the
left comb of n `+` breadth-first and leaves 3n `add` goals, which the
positional sweep `[...]` then answers in order.  Each goal is handed
over with the evidence of the entries before it put in, read through one
image of the names in scope, so the time per entry should be the same
on both combs.

Each time is the best of at least three runs and of BUDGET seconds of
them; the terms built are counted in one more run.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable

from refkit.logics import arith, dep
from refkit.script import compile_text
from refkit.state import Subgoals, TeleNil
from refkit.tactic import Resolved, run_delayed
from refkit.theory import App

SIZES = (100, 400)
LEVELS = (60, 180)
BUDGET = 1.0  # seconds of runs per size


def left_comb(pluses: int):
    return arith.parse_goal("eval " + " + ".join(["num 1"] * (pluses + 1)))


def sig_chain(levels: int):
    prop = "top"
    for _ in range(levels):
        prop = f"sig(x. eq(x, x), {prop})"
    return dep.parse_goal("true " + prop)


def wide_each(pluses: int) -> Any:
    adds = ", ".join(["num_eval | plus_eval | add"] * (6 * pluses))
    script = f"(id; all(num_eval | plus_eval)*); [{adds}]"
    return compile_text(arith.STRUCTURE, arith.RULES, script)


def solve(tactic: Any, goal: Any, fuel: int) -> Any:
    return run_delayed(tactic(goal.context, goal), fuel)


def timed(run: Callable[[], Any]) -> tuple[float, int, Any]:
    """The best time of run, the number of runs and the last answer."""
    best, runs, spent = float("inf"), 0, 0.0
    while runs < 3 or spent < BUDGET:
        start = time.perf_counter()
        got = run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        runs += 1
    return best, runs, got


def terms_built(run: Callable[[], Any]) -> int:
    """The App terms one run of run constructs."""
    count, post_init = [0], App.__post_init__

    def counted(self: App) -> None:
        count[0] += 1
        post_init(self)

    App.__post_init__ = counted
    try:
        run()
    finally:
        App.__post_init__ = post_init
    return count[0]


def main() -> int:
    auto = arith.auto()
    print(f"{'pluses':>6} {'rounds':>6} {'runs':>5} {'us/round':>9}")
    for n in SIZES:
        best, runs, got = timed(partial(solve, auto, left_comb(n), 10 * n))
        assert isinstance(got, Resolved) and got.steps == 3 * n + 1
        rounds = got.steps + 1
        print(f"{n:>6} {rounds:>6} {runs:>5} {best / rounds * 1e6:>9.1f}")
    auto = dep.auto()
    print(f"{'levels':>6} {'rounds':>6} {'runs':>5} {'us/level':>9} {'terms/level':>11}")
    for n in LEVELS:
        run = partial(solve, auto, sig_chain(n), 10 * n)
        best, runs, got = timed(run)
        assert isinstance(got, Resolved) and got.steps == n + 1
        built = terms_built(run)
        rounds = got.steps + 1
        print(f"{n:>6} {rounds:>6} {runs:>5} {best / n * 1e6:>9.1f} {built / n:>11.1f}")
    print(f"{'pluses':>6} {'entries':>7} {'runs':>5} {'us/entry':>9}")
    for n in SIZES:
        best, runs, got = timed(partial(solve, wide_each(n), left_comb(n), 10 * n))
        assert isinstance(got, Resolved) and got.steps == n + 1
        assert isinstance(got.value, Subgoals) and isinstance(got.value.telescope, TeleNil)
        entries = 3 * n
        print(f"{n:>6} {entries:>7} {runs:>5} {best / entries * 1e6:>9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
