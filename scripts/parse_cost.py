"""Time the goal and script parsers, in microseconds per input character.

The texts are made here.  A dep chain of n levels is the goal of a
positional proof: level k is `sig(x. eq(x, W), A)`, whose base A is the
level below and whose body spells out W, the witness of that level, so
the text grows quadratically with n while its distinct subterms grow
linearly.  Its script proves it positionally, `sig_i; [..., eq_refl]`.
A flat chain of n levels, `sig(x. eq(x, x), ...)`, repeats no witness:
its text and its distinct subterms both grow linearly.  An arith comb is
`eval num 1 + num 2 + ...`, a left comb whose leaves are all distinct.
`compile_script` is timed on the parsed script, per character of the
script's text.  Each row is the best of at least three runs and of
BUDGET seconds of them.

The dep.parse_goal rows also count the terms the reader constructs per
level of the chain.  Read once per distinct witness, a dep chain takes
about four a level (a sig, an eq, a pair and a refl) and a flat chain
two; a reader that read every word of every witness took about n + 2 a
level on a dep chain.
"""

from __future__ import annotations

import time

from refkit.logics import arith, dep
from refkit.refiner import Refiner
from refkit.script import compile_script, parse_script

DEP_LEVELS = (8, 24, 48)
COMB_LEAVES = (16, 64, 256)
BUDGET = 0.2  # seconds of runs per row


def dep_chain(levels: int) -> tuple[str, str]:
    """The goal text of a positional chain and the script that proves it."""
    prop, witness, script = "top", "tt", "top_i"
    for _ in range(levels):
        prop = f"sig(x. eq(x, {witness}), {prop})"
        witness = f"pair({witness}, refl)"
        script = f"sig_i; [{script}, eq_refl]"
    return "true " + prop, script


def flat_chain(levels: int) -> str:
    """The goal text of a sig chain whose bodies spell out no witness."""
    prop = "top"
    for _ in range(levels):
        prop = f"sig(x. eq(x, x), {prop})"
    return "true " + prop


def apps_per_level(goal: str, levels: int) -> float:
    """How many terms dep.parse_goal constructs reading goal, per level."""
    made, real = 0, dep.App

    def counted(op, args):
        nonlocal made
        made += 1
        return real(op, args)

    dep.App = counted
    try:
        dep.parse_goal(goal)
    finally:
        dep.App = real
    return made / levels


def arith_comb(leaves: int) -> str:
    return "eval " + " + ".join(f"num {i}" for i in range(1, leaves + 1))


def best_time(run) -> tuple[float, int]:
    """The fastest of the timed runs of run(), and how many were made."""
    best, runs, spent = float("inf"), 0, 0.0
    while runs < 3 or spent < BUDGET:
        start = time.perf_counter()
        run()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        spent += elapsed
        runs += 1
    return best, runs


def main() -> int:
    lookup = Refiner(dep.STRUCTURE, dict(dep.RULES)).lookup
    rows = []
    for n in DEP_LEVELS:
        goal, script = dep_chain(n)
        flat = flat_chain(n)
        ast = parse_script(script)
        rows += [
            ("dep.parse_goal", f"dep chain {n}", goal,
             lambda goal=goal: dep.parse_goal(goal), apps_per_level(goal, n)),
            ("dep.parse_goal", f"flat chain {n}", flat,
             lambda flat=flat: dep.parse_goal(flat), apps_per_level(flat, n)),
            ("parse_script", f"dep chain {n}", script,
             lambda script=script: parse_script(script), None),
            ("compile_script", f"dep chain {n}", script,
             lambda ast=ast: compile_script(dep.STRUCTURE, lookup, ast), None),
        ]
    for leaves in COMB_LEAVES:
        goal = arith_comb(leaves)
        rows.append(("arith.parse_goal", f"arith comb {leaves}", goal,
                     lambda goal=goal: arith.parse_goal(goal), None))
    print(f"{'function':<17} {'input':<15} {'chars':>7} {'runs':>5} {'us/char':>8}"
          f" {'apps/level':>10}")
    for name, label, text, run, apps in rows:
        best, runs = best_time(run)
        per_char = best / len(text) * 1e6
        apps = "" if apps is None else f"{apps:.2f}"
        print(f"{name:<17} {label:<15} {len(text):>7} {runs:>5} {per_char:>8.3f}"
              f" {apps:>10}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
