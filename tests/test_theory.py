"""Terms, contexts, substitutions, and binding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit.theory import (
    App,
    BoundTerm,
    Context,
    ContextMismatch,
    NameSupply,
    Operator,
    Sort,
    Substitution,
    UnsortedTerm,
    Var,
    alpha_eq,
    check_term,
    ctx_concat,
    fresh_name,
    freshen_context,
    render_term,
    subst_apply,
    subst_compose,
    subst_extend_binder,
    subst_identity,
    subst_weaken,
    term_sort,
    term_vars,
)

from strategies import rand_context, rand_expr, rand_subst

NUM = Sort("num")
EXP = Sort("exp")
LIT = Operator("lit", (NUM,), EXP)
ADD = Operator("add", (EXP, EXP), EXP)
ZERO = Operator("0", (), NUM)


def test_operator_application_checks_arity():
    with pytest.raises(UnsortedTerm):
        App(ADD, (App(ZERO, ()),))


def test_operator_application_checks_argument_sorts():
    with pytest.raises(UnsortedTerm):
        App(LIT, (App(LIT, (App(ZERO, ()),)),))


def test_term_sort_and_vars():
    x = Var("x", EXP)
    t = App(ADD, (x, App(LIT, (App(ZERO, ()),))))
    assert term_sort(t) == EXP
    assert term_vars(t) == {"x"}
    assert term_vars(App(ZERO, ())) == set()


def test_context_rejects_duplicates():
    with pytest.raises(ContextMismatch):
        Context((("x", NUM), ("x", EXP)))


def test_context_lookup_and_extend():
    ctx = Context((("x", NUM),))
    assert ctx.lookup("x") == NUM
    assert ctx.lookup("y") is None
    longer = ctx.extend("y", EXP)
    assert longer.names == ("x", "y")
    assert len(longer) == 2


def test_ctx_concat_rejects_shadowing():
    left = Context((("x", NUM),))
    with pytest.raises(ContextMismatch):
        ctx_concat(left, Context((("x", EXP),)))


def test_check_term_unknown_variable():
    with pytest.raises(ContextMismatch):
        check_term(Context(()), Var("x", NUM))


def test_check_term_wrong_variable_sort():
    ctx = Context((("x", NUM),))
    with pytest.raises(UnsortedTerm):
        check_term(ctx, Var("x", EXP))
    check_term(ctx, Var("x", NUM))


def test_substitution_checks_length_and_sorts():
    target = Context((("x", NUM),))
    with pytest.raises(ContextMismatch):
        Substitution(Context(()), target, ())
    with pytest.raises(UnsortedTerm):
        Substitution(Context(()), target, (App(LIT, (App(ZERO, ()),)),))


def test_identity_substitution_is_inert():
    ctx = Context((("x", EXP), ("y", NUM)))
    s = subst_identity(ctx)
    t = App(ADD, (Var("x", EXP), App(LIT, (Var("y", NUM),))))
    assert subst_apply(t, s) == t


def test_weakening_projects_named_entries():
    big = Context((("x", EXP), ("y", NUM), ("z", EXP)))
    small = Context((("z", EXP), ("x", EXP)))
    s = subst_weaken(big, small)
    assert subst_apply(Var("z", EXP), s) == Var("z", EXP)
    with pytest.raises(ContextMismatch):
        subst_weaken(small, big)


def test_substitution_replaces_positionally():
    target = Context((("x", EXP),))
    source = Context((("y", NUM),))
    s = Substitution(source, target, (App(LIT, (Var("y", NUM),)),))
    got = subst_apply(App(ADD, (Var("x", EXP), Var("x", EXP))), s)
    lit_y = App(LIT, (Var("y", NUM),))
    assert got == App(ADD, (lit_y, lit_y))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_compose_agrees_with_sequential_application(seed):
    rng = random.Random(seed)
    c_ctx = rand_context(rng)
    s2 = rand_subst(rng, c_ctx)
    s1 = rand_subst(rng, s2.source)
    composed = subst_compose(s1, s2)
    assert composed.source == s1.source
    assert composed.target == s2.target
    t = rand_expr(rng, c_ctx, 3)
    assert subst_apply(t, composed) == subst_apply(subst_apply(t, s2), s1)


def test_extend_binder_keeps_binder_entries_fixed():
    target = Context((("x", EXP),))
    source = Context(())
    s = Substitution(source, target, (App(LIT, (App(ZERO, ()),)),))
    binder = (("b", NUM),)
    wide = subst_extend_binder(s, binder, ("b",))
    assert wide.target.names == ("x", "b")
    assert subst_apply(Var("b", NUM), wide) == Var("b", NUM)


def test_fresh_name_prefers_the_bare_stem():
    assert fresh_name("x", set()) == "x"
    assert fresh_name("x", {"x"}) == "x'1"
    assert fresh_name("x", {"x", "x'1"}) == "x'2"


def test_fresh_name_strips_old_primes_and_empty_stems():
    assert fresh_name("n'3", {"n"}) == "n'1"
    assert fresh_name("", set()) == "x"


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_name_supply_picks_what_fresh_name_picks(seed):
    rng = random.Random(seed)
    stems = ["x", "n", "c", "", "x'2", "n'1"]
    taken = {rng.choice(("x", "n", "x'1", "x'3", "n'2", "c")) for _ in range(4)}
    supply = NameSupply(taken)
    for _ in range(30):
        base = rng.choice(stems)
        want = fresh_name(base, taken)
        taken.add(want)
        assert supply.fresh(base) == want
    assert supply.names == taken


def test_freshen_context_avoids_collisions_consistently():
    entries = (("x", NUM), ("y", EXP))
    renamed, rename = freshen_context(entries, {"x"})
    assert renamed[0][0] != "x"
    assert renamed[1][0] == "y"
    assert rename["x"] == renamed[0][0]


def test_alpha_equality_ignores_binder_names():
    body_x = App(LIT, (Var("n", NUM),))
    body_m = App(LIT, (Var("m", NUM),))
    a = BoundTerm(Context((("n", NUM),)), body_x)
    b = BoundTerm(Context((("m", NUM),)), body_m)
    assert alpha_eq(a, b)
    assert not alpha_eq(a, BoundTerm(Context((("m", EXP),)), Var("m", EXP)))


def test_alpha_equality_is_structural_elsewhere():
    assert alpha_eq(Var("x", NUM), Var("x", NUM))
    assert not alpha_eq(Var("x", NUM), Var("y", NUM))


def test_render_term_uses_prefix_form():
    t = App(ADD, (Var("x", EXP), App(LIT, (App(ZERO, ()),))))
    assert render_term(t) == "add(x, lit(0))"
    assert render_term(App(ZERO, ())) == "0"
