"""Count the Python work refkit does per goal of each benchmark workload.

For each workload of the benchmark at SEED, the batch's first goal runs
once to warm up; then the batch runs through `cli.main([..., "--json"])`
under `sys.settrace`, which counts the Python opcodes executed and the
Python frames started ("opcode" and "call" events).  The script reports
both per goal, in total and by refkit module, the rest (the standard
library's argument parsing and JSON among it) as "other", together with
`sys.version` and the git revision of the checkout refkit was imported
from.  Unlike a time, a count repeats exactly from run to run and from
machine to machine under one Python version, so two versions of refkit
can be compared on a busy machine.  The goals come from
`perfbench/workloads.py`, the benchmark's own goal maker; a goal whose
exit code is not the one the benchmark expects stops the count.

    PYTHONPATH=src python scripts/work_counts.py [--write FILE] [--check FILE]

`--write FILE` saves the report as JSON.  `--check FILE` exits 1 if the
opcodes or the calls per goal of any workload are more than 1% above
FILE's; it checks only when FILE was counted under the running Python's
major.minor version, since the interpreter's own code differs between
versions.  A counted batch takes a few seconds.  With BUDGET = 0 the
first goal of each batch alone is counted, and nothing may be written
or checked.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import subprocess
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import BATCH_SIZE, make_batch  # noqa: E402

import refkit  # noqa: E402
from refkit import cli  # noqa: E402

WORKLOADS = ("arith-rounds", "arith-depth", "dep-positional")
SEED = 7
BUDGET = BATCH_SIZE - 1  # the last goal of each batch counted
# how far above the file's a count may read before --check fails
TOLERANCE = 0.01


def counted(run) -> tuple[Counter, Counter]:
    """The opcodes and the Python calls run() makes, by module: a refkit
    module by its name, any other as "other"."""
    opcodes: Counter = Counter()
    calls: Counter = Counter()
    tracers = {}

    def tracer(module):
        def local(frame, event, arg):
            if event == "opcode":
                opcodes[module] += 1
            return local

        return local

    def call(frame, event, arg):
        name = frame.f_globals.get("__name__") or ""
        module = name if name.split(".")[0] == "refkit" else "other"
        calls[module] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        if module not in tracers:
            tracers[module] = tracer(module)
        return tracers[module]

    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(None)
    return opcodes, calls


def run_goals(goals) -> None:
    for goal in goals:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(goal.argv())
        want = goal.expected.exit_code
        if code != want:
            raise SystemExit(f"{goal.text!r} exited {code}, not {want}")


def revision() -> str:
    src = Path(refkit.__file__).resolve().parent
    try:
        proc = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=12"],
            cwd=src, capture_output=True, text=True,
        )
    except OSError:
        return "unknown"
    return proc.stdout.strip() or "unknown"


def report() -> dict:
    workloads = {}
    for workload in WORKLOADS:
        batch = make_batch(workload, SEED)[: BUDGET + 1]
        run_goals(batch[:1])
        opcodes, calls = counted(lambda: run_goals(batch))
        goals = len(batch)
        workloads[workload] = {
            "goals": goals,
            "opcodes": round(sum(opcodes.values()) / goals, 1),
            "calls": round(sum(calls.values()) / goals, 1),
            "by_module": {
                module: {
                    "opcodes": round(opcodes[module] / goals, 1),
                    "calls": round(calls[module] / goals, 1),
                }
                for module in sorted(opcodes.keys() | calls.keys())
            },
        }
    return {
        "python": sys.version,
        "revision": revision(),
        "seed": SEED,
        "workloads": workloads,
    }


def show(counts: dict) -> None:
    print(f"python {counts['python']}")
    print(f"revision {counts['revision']}, seed {counts['seed']}, per goal")
    print(f"{'workload':<16} {'module':<22} {'opcodes':>12} {'calls':>10}")
    for workload, got in counts["workloads"].items():
        rows = [("total", got), *got["by_module"].items()]
        for module, row in rows:
            opcodes, calls = row["opcodes"], row["calls"]
            print(f"{workload:<16} {module:<22} {opcodes:>12.1f} {calls:>10.1f}")


def major_minor(version: str) -> str:
    return ".".join(version.split(".")[:2])


def check(counts: dict, path: str) -> int:
    """1 if a total count per goal is more than TOLERANCE above path's."""
    pinned = json.loads(Path(path).read_text())
    running, then = major_minor(counts["python"]), major_minor(pinned["python"])
    if running != then:
        print(f"not checked: {path} was counted under Python {then}, this is {running}")
        return 0
    worse = []
    for workload, want in pinned["workloads"].items():
        got = counts["workloads"][workload]
        for kind in ("opcodes", "calls"):
            if got[kind] > want[kind] * (1 + TOLERANCE):
                worse.append(f"{workload} {kind} {got[kind]} > {want[kind]}")
    for line in worse:
        print(f"more than {TOLERANCE:.0%} above {path}: {line}")
    return 1 if worse else 0


def main(argv: list[str] = ()) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", metavar="FILE")
    parser.add_argument("--check", metavar="FILE")
    args = parser.parse_args(argv)
    if BUDGET < BATCH_SIZE - 1 and (args.write or args.check):
        parser.error("a partial count is neither written nor checked")
    counts = report()
    show(counts)
    if args.write:
        Path(args.write).write_text(json.dumps(counts, indent=2) + "\n")
    return check(counts, args.check) if args.check else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
