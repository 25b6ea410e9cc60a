"""Time the rounds of breadth-first automation, per round, on left combs.

`arith.AUTO_SCRIPT` is `id; all(num_eval | plus_eval | add)*`.  On a
left comb of n `+` nodes it runs 3n + 1 rounds, and most goals stand
refused through most of them: each `add` waits for the sums below it.
A round attacks only the goals that may answer differently and moves
only the goals that use the outputs of those that answered, so a round
should cost about the same on both combs.  Each row is the best of at
least three runs and of BUDGET seconds of them.
"""

from __future__ import annotations

import time

from refkit.logics import arith
from refkit.tactic import Resolved, run_delayed

SIZES = (100, 400)
BUDGET = 1.0  # seconds of runs per size


def left_comb(pluses: int):
    return arith.parse_goal("eval " + " + ".join(["num 1"] * (pluses + 1)))


def main() -> int:
    auto = arith.auto()
    print(f"{'pluses':>6} {'rounds':>6} {'runs':>5} {'us/round':>9}")
    for n in SIZES:
        goal = left_comb(n)
        best, runs, spent = float("inf"), 0, 0.0
        while runs < 3 or spent < BUDGET:
            start = time.perf_counter()
            got = run_delayed(auto(goal.context, goal), 10 * n)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            spent += elapsed
            runs += 1
        assert isinstance(got, Resolved) and got.steps == 3 * n + 1
        rounds = got.steps + 1
        print(f"{n:>6} {rounds:>6} {runs:>5} {best / rounds * 1e6:>9.1f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
