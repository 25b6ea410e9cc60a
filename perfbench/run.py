"""Closed-loop benchmark of the refkit command line.

One caller runs the goals of a seeded workload through
`refkit.cli.main([... "--json"])`, in this process, waiting for each
report before sending the next goal, and checks every report against
the reference the generator computed on its own.

    python3 perfbench/run.py --workload arith-rounds --seed 1 --seconds 20 --trace 0

With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it
runs the batch once untraced and once with every layer wrapped, and
prints the per-layer metrics.  Human-readable lines come first; the last
line of standard output is one JSON object.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import speed
from spans import Recorder, merge, summarise
from workloads import WORKLOADS, Goal, check_report, make_batch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

COLD_STARTS = 9
COLD_START_TIMEOUT_S = 60
# a timed run needs this many goals for its p90 to have ten beyond it
MIN_SAMPLES = 100

# exact per-layer time that is 0.0 on workloads that never call the
# function; printed, but left out of the JSON line
PRINT_ONLY = {"state.alpha_eq.self_s"}


def import_refkit():
    """Import refkit from this checkout's sources and nowhere else."""
    if not (SRC / "refkit" / "__init__.py").is_file():
        raise ImportError(f"no refkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import refkit.cli

    if Path(refkit.cli.__file__).resolve().parent.parent != SRC:
        raise ImportError(f"refkit was imported from {refkit.cli.__file__}")
    return refkit.cli


class Runner:
    """Runs goals through `cli.main` and keeps the failures it saw."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, goal: Goal) -> tuple[float, dict | None]:
        """Seconds one `cli.main` call took, and its report if correct."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            start = time.perf_counter()
            try:
                code: object = self.cli.main(goal.argv())
            except Exception as err:  # a crash is a failed goal, not a stop
                code = f"{type(err).__name__}: {err}"
            elapsed = time.perf_counter() - start
        self.attempted += 1
        why = check_report(goal, code, out.getvalue())
        if why is not None:
            self.failures.append(f"{goal.logic} size {goal.size}: {why}")
            return elapsed, None
        return elapsed, json.loads(out.getvalue())


def percentile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile of the samples.

    A weighted mean of all order statistics, weighted by the density of
    Beta((n+1)q, (n+1)(1-q)) at each rank's midpoint.  A batch has a few
    dozen distinct goals, so a plain percentile jumps with the single goal
    it lands on; this one moves much less from run to run.
    """
    ordered = sorted(samples)
    n = len(ordered)
    a, b = q * (n + 1), (1 - q) * (n + 1)
    logs = [
        (a - 1) * math.log((i + 0.5) / n) + (b - 1) * math.log(1 - (i + 0.5) / n)
        for i in range(n)
    ]
    top = max(logs)
    weights = [math.exp(w - top) for w in logs]
    return sum(w * x for w, x in zip(weights, ordered)) / sum(weights)


def cold_start_s(goal: Goal, runner: Runner) -> float:
    """Median wall time of a fresh `python -m refkit.cli` on the goal."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    command = [sys.executable, "-m", "refkit.cli", *goal.argv()]
    times = []
    for _ in range(COLD_STARTS):
        start = time.perf_counter()
        done = subprocess.run(
            command, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=COLD_START_TIMEOUT_S,
        )
        times.append(time.perf_counter() - start)
        runner.attempted += 1
        why = check_report(goal, done.returncode, done.stdout)
        if why is not None:
            runner.failures.append(f"cold start: {why}")
    return statistics.median(times)


def counted_pass(batch: list[Goal], runner: Runner) -> tuple[int, int]:
    """Rule calls and fuel steps over one pass of the batch."""
    import layers  # imports refkit, so only once import_refkit has run

    recorder = Recorder()
    rule_calls = steps = 0
    with layers.traced(recorder, Counter(), layers=("rule",)):
        for goal in batch:
            _, report = runner.run(goal)
            rule_calls += len(recorder.take())
            if report is not None:
                steps += report["steps_used"]
    return rule_calls, steps


def end_to_end(
    batch: list[Goal], runner: Runner, seconds: float
) -> tuple[dict, dict]:
    """The end-to-end metrics, and further figures for the table only."""
    smallest = min(batch, key=lambda g: (g.size, len(g.text)))
    setup = cold_start_s(smallest, runner)
    # the counting pass also warms the process up before timing
    rule_calls, steps = counted_pass(batch, runner)
    gc.collect()
    walls: list[float] = []
    kernels: list[float] = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        # whole passes only, so that every goal of the batch weighs the same
        for goal in batch:
            kernels.append(speed.kernel_s())
            walls.append(runner.run(goal)[0])
    if len(walls) < MIN_SAMPLES:
        print(f"warning: only {len(walls)} timed goals", file=sys.stderr)
    times = speed.rescale(walls, kernels)
    metrics = {
        "setup_s": (setup, "s"),
        "goals_per_s": (len(times) / sum(times), "goals/s"),
        "goal_ms.p50": (percentile(times, 0.5) * 1000, "ms"),
        "goal_ms.p90": (percentile(times, 0.9) * 1000, "ms"),
        "rule_calls_per_goal": (rule_calls / len(batch), "calls/goal"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    extra = {
        "goal_ms.samples": (len(times), "count"),
        "steps_per_goal": (steps / len(batch), "steps/goal"),
        "wall.goals_per_s": (len(walls) / sum(walls), "goals/s"),
        "wall.goal_ms.p50": (percentile(walls, 0.5) * 1000, "ms"),
        "wall.goal_ms.p90": (percentile(walls, 0.9) * 1000, "ms"),
        "speed.kernel_ms": (statistics.median(kernels) * 1000, "ms"),
    }
    return metrics, extra


def per_layer(batch: list[Goal], runner: Runner, name: str, seed: int) -> dict:
    """The per-layer metrics, from one untraced and one traced pass."""
    import layers  # imports refkit, so only once import_refkit has run

    untraced = sum(runner.run(goal)[0] for goal in batch)
    gc.collect()
    recorder, counts = Recorder(), Counter()
    totals: dict = {}
    traced_s = 0.0
    with layers.traced(recorder, counts):
        for goal in batch:
            elapsed, report = runner.run(goal)
            traced_s += elapsed
            if report is not None:
                counts["tactic.steps"] += report["steps_used"]
            merge(totals, summarise(recorder.take()))
    values = layers.layer_metrics(
        totals,
        counts,
        len(batch),
        script_chars=sum(len(g.script) for g in batch),
        goal_chars=sum(len(g.text) for g in batch),
    )
    values["trace.overhead_ratio"] = (traced_s / untraced, "ratio")
    OUT_DIR.mkdir(exist_ok=True)
    table = {
        span: {"calls": t.calls, "total_s": t.total_s, "self_s": t.self_s}
        for span, t in sorted(totals.items())
    }
    dump = {"goals": len(batch), "counts": counts, "spans": table}
    (OUT_DIR / f"trace-{name}-seed{seed}.json").write_text(json.dumps(dump, indent=1))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        cli = import_refkit()
    except ImportError as err:
        print(f"error: cannot import refkit: {err}", file=sys.stderr)
        return 2

    batch = make_batch(args.workload, args.seed)
    runner = Runner(cli)
    if args.trace:
        measured = per_layer(batch, runner, args.workload, args.seed)
        metrics = {k: v for k, v in measured.items() if k not in PRINT_ONLY}
        shown = measured
    else:
        metrics, extra = end_to_end(batch, runner, args.seconds)
        shown = {**metrics, **extra}
    failed = len(runner.failures)
    shown["error_rate"] = (failed / runner.attempted, "ratio")

    for why in runner.failures[:10]:
        print(f"failed: {why}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    for key, (value, unit) in shown.items():
        print(f"  {key:32} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
