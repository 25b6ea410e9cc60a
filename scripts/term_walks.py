"""Time the term walks on a closed and on an open term of the same shape.

Each walk is timed per call on a balanced tree of about --nodes nodes:
`subst_apply`, `check_term` and `term_vars` on an arith sum, and dep's
`DepStructure.subst` on an equation between two pair trees and on a sig
over such an equation.  The closed term has a numeral (or `tt`) at every
leaf; the open term has a variable there, so a walk visits every node of
it, while it hands the closed term back after one look at its root.  The
closed sig's body has its own slot at every leaf, which the sig binds,
so it is closed too; the open sig's body has a context variable at half
of them.  The benchmark's traced run cannot show this, because it times
whole substitutions, not the walks.

Two more rows time deep terms: `subst_apply` on a left-nested `pair`
spine DEPTH levels deep with a variable at the bottom, and
`render_term` on a closed spine of the same depth.  `subst_apply`
recurses one Python frame per level, and `render_term` walks an explicit
stack.
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
    render_term,
    subst_apply,
    term_vars,
)


def balanced(join, leaf, leaves: int):
    if leaves == 1:
        return leaf()
    half = leaves // 2
    return join(balanced(join, leaf, half), balanced(join, leaf, leaves - half))


def size(t) -> int:
    nodes, stack = 0, [t]
    while stack:
        t = stack.pop()
        nodes += 1
        if isinstance(t, App):
            stack.extend(t.args)
    return nodes


# deep enough to show the per-level cost, below the ~977 levels where
# subst_apply's recursion runs out of frames
DEPTH = 900


def spine(bottom, depth: int):
    """pair(pair(…pair(bottom, tt)…, tt), tt), depth pairs deep."""
    for _ in range(depth):
        bottom = dep.pair(bottom, dep.tt())
    return bottom


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
    def pair_eq(left, right):
        # two pair trees of a quarter as many leaves each
        return dep.eq(
            balanced(dep.pair, left, args.nodes // 4),
            balanced(dep.pair, right, args.nodes // 4),
        )

    def slot():
        return dep.SLOT

    props = {
        "closed": pair_eq(dep.tt, dep.tt),
        "open": pair_eq(lambda: g, lambda: g),
    }
    sigs = {
        kind: App(dep.SIG_OP, (dep.top(), pair_eq(left, slot)))
        for kind, left in (("closed", slot), ("open", lambda: g))
    }

    def dep_subst(p):
        goal = dep.TruthGoal(dctx, p)
        return lambda: dep.STRUCTURE.subst(goal, to_tt)

    print(f"{'walk':<16} {'term':<7} {'nodes':>6} {'us/call':>10}")
    for kind in ("closed", "open"):
        t, p, sig = sums[kind], props[kind], sigs[kind]
        walks = [
            ("subst_apply", t, lambda: subst_apply(t, to_one)),
            ("dep.subst", p, dep_subst(p)),
            ("dep.subst sig", sig, dep_subst(sig)),
            ("check_term", t, lambda: check_term(ctx, t)),
            ("term_vars", t, lambda: term_vars(t)),
        ]
        for name, term, walk in walks:
            us = per_call_us(walk, args.budget)
            print(f"{name:<16} {kind:<7} {size(term):>6} {us:>10.2f}")
    deep_open, deep_closed = spine(g, DEPTH), spine(dep.tt(), DEPTH)
    for name, term, walk in (
        ("subst_apply", deep_open, lambda: subst_apply(deep_open, to_tt)),
        ("render_term", deep_closed, lambda: render_term(deep_closed)),
    ):
        us = per_call_us(walk, args.budget)
        print(f"{name:<16} {'deep':<7} {size(term):>6} {us:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
