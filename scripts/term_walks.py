"""Time the term walks on a closed and on an open term of the same shape.

Each walk is timed per call on a balanced tree of about --nodes nodes:
`subst_apply`, `check_term` and `term_vars` on an arith sum, and
`dep.subst_prop` on an equation between two pair trees.  The closed term
has a numeral (or `tt`) at every leaf; the open term has a variable
there, so a walk visits every node of it, while it hands the closed
term back after one look at its root.  The benchmark's traced run cannot
show this, because it times whole substitutions, not the walks.
"""

from __future__ import annotations

import argparse
import time

from refkit.logics import arith, dep
from refkit.theory import (
    App,
    Context,
    Substitution,
    Var,
    check_term,
    subst_apply,
    term_vars,
)


def balanced(join, leaf, leaves: int):
    if leaves == 1:
        return leaf()
    half = leaves // 2
    return join(balanced(join, leaf, half), balanced(join, leaf, leaves - half))


def size(t) -> int:
    return 1 + sum(size(a) for a in t.args) if isinstance(t, App) else 1


def per_call_us(walk, budget: float) -> float:
    """Microseconds per call of walk(), over calls filling budget seconds."""
    calls = 0
    start = time.perf_counter()
    while True:
        walk()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / calls * 1e6


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--nodes", type=int, default=1000)
    parser.add_argument("--budget", type=float, default=0.02,
                        help="seconds of calls per timing")
    args = parser.parse_args()

    n = Var("n", arith.NUM)
    ctx = Context((("n", arith.NUM),))
    to_one = Substitution(Context(), ctx, (arith.nat(1),))
    # a leaf `num k` is two nodes and a + node one, so a third are leaves
    sums = {
        "closed": balanced(arith.plus, lambda: arith.num(1), args.nodes // 3),
        "open": balanced(arith.plus, lambda: App(arith.NUM_OP, (n,)), args.nodes // 3),
    }
    g = Var("g", dep.EXP)
    dctx = Context((("g", dep.EXP),))
    to_tt = Substitution(Context(), dctx, (dep.tt(),))
    # two pair trees of a quarter as many leaves each
    props = {
        kind: dep.eq(
            balanced(dep.pair, leaf, args.nodes // 4),
            balanced(dep.pair, leaf, args.nodes // 4),
        )
        for kind, leaf in (("closed", dep.tt), ("open", lambda: g))
    }

    print(f"{'walk':<16} {'term':<7} {'nodes':>6} {'us/call':>10}")
    for kind in ("closed", "open"):
        t, p = sums[kind], props[kind]
        walks = [
            ("subst_apply", t, lambda: subst_apply(t, to_one)),
            ("dep.subst_prop", p, lambda: dep.subst_prop(p, to_tt)),
            ("check_term", t, lambda: check_term(ctx, t)),
            ("term_vars", t, lambda: term_vars(t)),
        ]
        for name, term, walk in walks:
            us = per_call_us(walk, args.budget)
            print(f"{name:<16} {kind:<7} {size(term):>6} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
