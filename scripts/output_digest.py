"""One sha256 over everything the CLI prints for the benchmark's goals.

Every goal of the three benchmark batches, `arith-rounds`, `arith-depth`
and `dep-positional` in that order, at seeds 0 to BUDGET, runs through
`cli.main` in this process three times: with `--logic`, `--goal` and
`--script` alone, then with `--json` added, then with `--trace` added.
After each run the digest takes in `repr((exit code, stdout, stderr))`.
The goals come from `perfbench/workloads.py`, the benchmark's own goal
maker.

A change that should not change what refkit prints must leave the digest
at its pinned value; the script exits 1 when it differs.  With BUDGET = 3,
1,728 runs, it takes about 12 s on a 2-vCPU machine; with BUDGET = 0,
seed 0 alone, a quarter of that.

    PYTHONPATH=src python scripts/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import make_batch  # noqa: E402

from refkit import cli  # noqa: E402

WORKLOADS = ("arith-rounds", "arith-depth", "dep-positional")
BUDGET = 3  # the last seed run
# the digest of seeds 0 to BUDGET, for each BUDGET pinned
PINNED = {
    3: "4e4524dd67082debc38396878dd56e32e457d6f50246ea92dab34d773b9b65ec",
    0: "aed4d707d89237bc14e02bd022d64c2dd50380cf61b69a16f75a5e58eaafcc22",
}


def main() -> int:
    digest = hashlib.sha256()
    runs = 0
    for workload in WORKLOADS:
        for seed in range(BUDGET + 1):
            for goal in make_batch(workload, seed):
                base = [
                    "--logic", goal.logic, "--goal", goal.text,
                    "--script", goal.script,
                ]
                for argv in (base, base + ["--json"], base + ["--trace"]):
                    out, err = io.StringIO(), io.StringIO()
                    with contextlib.redirect_stdout(out):
                        with contextlib.redirect_stderr(err):
                            code = cli.main(argv)
                    run = (code, out.getvalue(), err.getvalue())
                    digest.update(repr(run).encode())
                    runs += 1
    got, want = digest.hexdigest(), PINNED.get(BUDGET)
    print(f"{runs} runs, seeds 0 to {BUDGET}: {got}")
    if got != want:
        print(f"differs from the pinned {want}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
