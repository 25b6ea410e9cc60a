"""Time the term walks on a closed and on an open term of the same shape.

Each walk is timed per call on a balanced tree of about NODES nodes:
`subst_apply`, `check_term` and `term_vars` on an arith sum, and dep's
`DepStructure.subst` on an equation between two pair trees and on a sig
over such an equation.  The closed term has a numeral (or `tt`) at every
leaf; the open term has a variable there, so a walk visits every node of
it, while it hands the closed term back after one look at its root.  The
closed sig's body has its own slot at every leaf, which the sig binds,
so it is closed too; the open sig's body has a context variable at half
of them.  The benchmark's traced run cannot show this, because it times
whole substitutions, not the walks.

Eight more rows time deep terms: `subst_apply`, `instantiate` and
`check_term` on a left-nested `pair` spine DEPTH levels deep with a
variable at the bottom, `render_term` on a closed spine of the same
depth, and the two logics' printers, which print through `render_term`
with their own notation: `dep.render_prop` on a left-nested `or` chain
and `arith.render_expr` on a right-nested sum, each DEPTH levels deep.
Each walks an explicit stack, so DEPTH lies past the ~1000 frames of
Python's default recursion limit.  The last two time `==` on two closed
spines built apart, equal ones and ones that differ at the leaf: equal
terms are one object, so neither walks the spines.

Seven rows time building: a variable, `Var(name, sort)`, and three
terms, `arith.num(k)`, `dep.pair` of two live closed terms and the open
`dep.pair` of a live term and a variable, each on a table hit, while the
term built is alive, and on a miss, once it is dropped, so each call
builds it anew (for `num k` its numeral and that numeral's operator too)
and forgets it again.
"""

from __future__ import annotations

import time

from refkit.logics import arith, dep
from refkit.theory import (
    App,
    Context,
    Substitution,
    Var,
    check_term,
    instantiate,
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


NODES = 1000
BUDGET = 0.02  # seconds of calls per timing
# deep enough to show the per-level cost, and deeper than a walk that
# took one frame per level could go
DEPTH = 5000


def spine(bottom, depth: int):
    """pair(pair(…pair(bottom, tt)…, tt), tt), depth pairs deep."""
    for _ in range(depth):
        bottom = dep.pair(bottom, dep.tt())
    return bottom


def per_call_us(walk) -> float:
    """Microseconds per call of walk(), over calls filling BUDGET seconds."""
    calls = 0
    start = time.perf_counter()
    while True:
        walk()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= BUDGET:
            return elapsed / calls * 1e6


def main() -> int:
    n = Var("n", arith.NUM)
    ctx = Context((("n", arith.NUM),))
    to_one = Substitution(Context(), ctx, (arith.nat(1),))
    # a leaf `num k` is two nodes and a + node one, so a third are leaves
    sums = {
        "closed": balanced(arith.plus, lambda: arith.num(1), NODES // 3),
        "open": balanced(arith.plus, lambda: App(arith.NUM_OP, (n,)), NODES // 3),
    }
    g = Var("g", dep.EXP)
    dctx = Context((("g", dep.EXP),))
    to_tt = Substitution(Context(), dctx, (dep.tt(),))
    def pair_eq(left, right):
        # two pair trees of a quarter as many leaves each
        return dep.eq(
            balanced(dep.pair, left, NODES // 4),
            balanced(dep.pair, right, NODES // 4),
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
            us = per_call_us(walk)
            print(f"{name:<16} {kind:<7} {size(term):>6} {us:>10.2f}")
    deep_open, deep_closed = spine(g, DEPTH), spine(dep.tt(), DEPTH)
    equal, unequal = spine(dep.tt(), DEPTH), spine(dep.refl(), DEPTH)
    ors, sums = dep.top(), arith.num(1)
    for _ in range(DEPTH):
        ors, sums = dep.or_(ors, dep.top()), arith.plus(arith.num(1), sums)
    for name, term, walk in (
        ("subst_apply", deep_open, lambda: subst_apply(deep_open, to_tt)),
        ("instantiate", deep_open, lambda: instantiate(deep_open, g, dep.tt())),
        ("check_term", deep_open, lambda: check_term(dctx, deep_open)),
        ("render_term", deep_closed, lambda: render_term(deep_closed)),
        ("dep.render_prop", ors, lambda: dep.render_prop(ors)),
        ("render_expr", sums, lambda: arith.render_expr(sums)),
        ("== equal", deep_closed, lambda: deep_closed == equal),
        ("== unequal", deep_closed, lambda: deep_closed == unequal),
    ):
        us = per_call_us(walk)
        print(f"{name:<16} {'deep':<7} {size(term):>6} {us:>10.2f}")
    us = per_call_us(lambda: Var("x", dep.EXP))
    print(f"{'Var':<16} {'new':<7} {1:>6} {us:>10.2f}")
    left, right = dep.inl(dep.tt()), dep.refl()
    for name, build in (
        ("num k", lambda: arith.num(987654)),
        ("dep.pair", lambda: dep.pair(left, right)),
        ("dep.pair open", lambda: dep.pair(left, g)),
    ):
        kept = build()
        hit = per_call_us(build)
        nodes = size(kept)
        del kept
        miss = per_call_us(build)
        print(f"{name:<16} {'hit':<7} {nodes:>6} {hit:>10.2f}")
        print(f"{name:<16} {'miss':<7} {nodes:>6} {miss:>10.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
