"""Time the tactic machine on runs whose approximants nest deep.

- comb: the depth-first auto script, `(num_eval | plus_eval | add)*`, on
  a left comb of n `+`.  Its k-th approximant takes the goal k levels
  down.  The star runs as one loop over a path of the levels it is in,
  kept as data, so no size runs out of Python frames; the loop goes a
  level deeper at each step, so the rule calls grow linearly with n.
  The loop records what each goal and each level handed up as a step of
  the flattening, and splices the steps once, at its end, so the time
  grows about linearly too, and the comb of 1000 should take about
  twice the time of the comb of 500.
- traced: the comb of 128 again, with `--trace`: each step shows the
  lines of the steps recorded so far again, and then resumes the pass,
  so the rule calls are the untraced run's.  The last column is the traced
  time over the untraced one.
- id*: `id*` on `add 1 2`, which never answers and runs out of fuel; each
  step resumes the pass one level deeper, so the time per step should
  read about the same at every fuel.  KB/step is the run's tracemalloc
  peak over its steps, from one more run: the path holds a level per
  step, so it should read about the same at every fuel too.
- race: one `force` of a fixed point after k steps, when it races k
  approximants that never answer; the time per approximant should read
  about the same at every k.

Each row is the best of at least one run and of BUDGET seconds of them;
us/unit is the time per step (id*) or per approximant (race).  The peak
is measured apart from the timed runs, which tracemalloc would slow.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
import tracemalloc
from typing import Callable

from refkit.cli import main as cli_main
from refkit.tactic import Later, force, lub

COMBS = (64, 128, 500, 1000)
TRACED = 128
FUELS = (100, 300, 10000)
RACES = (10, 100, 1000)
BUDGET = 2.0  # seconds of runs per row


def best_of(run: Callable[[], object]) -> tuple[float, object]:
    """The least time of run over BUDGET seconds, and what it returned."""
    best, spent, runs = float("inf"), 0.0, 0
    while runs < 1 or spent < BUDGET:
        start = time.perf_counter()
        out = run()
        elapsed = time.perf_counter() - start
        best, spent, runs = min(best, elapsed), spent + elapsed, runs + 1
    return best, out


def steps_used(goal: str, script: str, fuel: int, *flags: str) -> int:
    argv = ["--logic", "arith", "--goal", goal, "--script", script, "--json", *flags]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        cli_main([*argv, "--fuel", str(fuel)])
    return json.loads(out.getvalue())["steps_used"]


def comb(n: int) -> str:
    return "eval " + " + ".join(["num 1"] * (n + 1))


def spin() -> Later:
    """A computation that never answers and is never NEVER, so a race
    keeps it."""
    return Later(spin)


def main() -> int:
    print(f"{'family':>6} {'size':>6} {'steps':>6} {'seconds':>9} {'us/unit':>9} {'KB/step':>8}")
    script = "(num_eval | plus_eval | add)*"
    for n in COMBS:
        seconds, steps = best_of(lambda: steps_used(comb(n), script, 100000))
        print(f"{'comb':>6} {n:>6} {steps:>6} {seconds:>9.3f} {'':>9}")
        if n == TRACED:
            traced, steps = best_of(lambda: steps_used(comb(n), script, 100000, "--trace"))
            ratio = f"x{traced / seconds:.2f}"
            print(f"{'traced':>6} {n:>6} {steps:>6} {traced:>9.3f} {ratio:>9}")
    for fuel in FUELS:
        seconds, steps = best_of(lambda: steps_used("add 1 2", "id*", fuel))
        per_step = seconds / steps * 1e6
        tracemalloc.start()
        steps_used("add 1 2", "id*", fuel)
        peak = tracemalloc.get_traced_memory()[1] / steps / 1024
        tracemalloc.stop()
        print(f"{'id*':>6} {fuel:>6} {steps:>6} {seconds:>9.3f} {per_step:>9.1f} {peak:>8.2f}")
    for k in RACES:
        m = lub(lambda n: spin())
        for _ in range(k):
            m = force(m)
        seconds, _ = best_of(lambda: force(m))
        print(f"{'race':>6} {k:>6} {'':>6} {seconds:>9.6f} {seconds / k * 1e6:>9.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
