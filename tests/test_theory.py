"""Terms, contexts, substitutions, and binding."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit.theory import (
    App,
    Context,
    ContextMismatch,
    NameSupply,
    Operator,
    Sort,
    Substitution,
    UnsortedTerm,
    Var,
    check_term,
    ctx_concat,
    freshen_context,
    render_term,
    subst_apply,
    subst_compose,
    subst_weaken,
    term_sort,
    term_vars,
)

from reference import fresh_name
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


def test_context_lookup_and_concat():
    ctx = Context((("x", NUM),))
    assert ctx.lookup("x") == NUM
    assert ctx.lookup("y") is None
    longer = ctx_concat(ctx, Context((("y", EXP),)))
    assert longer.names == ("x", "y")
    assert len(longer) == 2


def test_ctx_concat_rejects_shadowing():
    left = Context((("x", NUM),))
    with pytest.raises(ContextMismatch):
        ctx_concat(left, Context((("x", EXP),)))


def same_as_built_from_scratch(ctx, entries, alphabet):
    """ctx behaves as Context(entries) does, on every name of alphabet."""
    fresh = Context(entries)
    assert ctx == fresh and hash(ctx) == hash(fresh) and repr(ctx) == repr(fresh)
    assert ctx.entries == entries and ctx.names == fresh.names
    assert len(ctx) == len(fresh)
    ids = tuple(Var(name, sort) for name, sort in entries)
    s = Substitution(fresh, ctx, ids)
    s_fresh = Substitution(fresh, fresh, ids)
    for name in alphabet:
        assert ctx.lookup(name) == fresh.lookup(name)
        assert s.lookup(name) == s_fresh.lookup(name)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_persistent_contexts_behave_as_if_built_from_scratch(seed):
    # a tree of extensions, each of a version picked at random: the
    # newest, an older one, or one an extension that raised left alone
    rng = random.Random(seed)
    alphabet = "abcdefgh"
    built = [(Context(()), ())]
    for _ in range(12):
        base, entries = rng.choice(built)
        extra = tuple(
            (rng.choice(alphabet), rng.choice((NUM, EXP)))
            for _ in range(rng.randint(0, 3))
        )
        names = [name for name, _ in entries + extra]
        if len(set(names)) < len(names):
            with pytest.raises(ContextMismatch, match="duplicate variable"):
                Context._extended(base, extra)
        else:
            built.append((Context._extended(base, extra), entries + extra))
        # versions built before still hold; some are read for the first
        # time only after later extensions
        for ctx, want in built:
            if rng.random() < 0.3:
                same_as_built_from_scratch(ctx, want, alphabet)
    for ctx, want in built:
        same_as_built_from_scratch(ctx, want, alphabet)
        # versions of one context compare as their entries do
        for other, other_want in built:
            assert (ctx == other) == (want == other_want)


def test_an_extension_conses_onto_its_base_and_builds_nothing_when_it_raises(
    monkeypatch,
):
    base = Context((("x", NUM),))
    newer = ctx_concat(base, Context((("y", NUM),)))
    newest = ctx_concat(newer, Context((("z", EXP), ("u", NUM))))
    assert newest._parent._parent is newer and newer._parent is base
    # a branch off newer is a sibling of newest: neither sees the other's names
    branch = ctx_concat(newer, Context((("w", EXP),)))
    assert branch._parent is newer
    assert branch.lookup("z") is None and newest.lookup("w") is None
    assert branch.names == ("x", "y", "w")
    assert newest.names == ("x", "y", "z", "u")
    assert newest._names_from(2) == ["z", "u"]
    # the duplicate comes second, so a cell for v would be made first if
    # the check came after the consing
    clash, fine = Context((("v", NUM), ("x", NUM))), Context((("v", NUM),))
    made = []
    snoc = Context._snoc
    monkeypatch.setattr(
        Context, "_snoc", lambda ctx, *entry: made.append(entry) or snoc(ctx, *entry)
    )
    with pytest.raises(ContextMismatch, match="duplicate variable 'x'"):
        ctx_concat(newest, clash)
    assert made == []
    assert ctx_concat(newest, fine)._parent is newest
    assert made == [("v", NUM)]


def test_extends_reads_a_prefix_only_from_shared_or_copied_versions():
    base = Context((("x", NUM),))
    longer = ctx_concat(base, Context((("y", NUM), ("z", EXP))))
    assert longer._extends(base, ("y", "z"))
    for names in (("y",), ("z", "y"), ("y", "w"), ("y", "z", "w")):
        assert not longer._extends(base, names)
    # a branch off base conses onto it too, beside longer
    branch = ctx_concat(base, Context((("w", NUM),)))
    assert branch._extends(base, ("w",))
    assert not branch._extends(longer, ())
    # a cousin shares only a shorter prefix with child, which says
    # nothing of the names child has past it
    parent = Context((("p", NUM),))
    child = ctx_concat(parent, Context((("r", NUM),)))
    cousin = ctx_concat(ctx_concat(parent, Context((("q", NUM),))), Context((("a", NUM),)))
    assert not cousin._extends(child, ("a",))
    # nor does an extension of another context, or a context built apart
    other = Context((("q", NUM),))
    ctx_concat(other, Context((("w", NUM),)))
    assert not ctx_concat(other, Context((("a", NUM),)))._extends(base, ("a",))
    assert not Context((("x", NUM), ("w", NUM)))._extends(base, ("w",))


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
    s = Substitution(ctx, ctx, (Var("x", EXP), Var("y", NUM)))
    t = App(ADD, (Var("x", EXP), App(LIT, (Var("y", NUM),))))
    assert subst_apply(t, s) == t


def test_weakening_projects_named_entries():
    big = Context((("x", EXP), ("y", NUM), ("z", EXP)))
    small = Context((("z", EXP), ("x", EXP)))
    s = subst_weaken(big, small)
    assert subst_apply(Var("z", EXP), s) == Var("z", EXP)
    with pytest.raises(ContextMismatch):
        subst_weaken(small, big)
    with pytest.raises(UnsortedTerm):
        subst_weaken(big, Context((("y", EXP),)))


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


def picks(base, avoid):
    """The name the reference picks, checked against NameSupply's."""
    want = fresh_name(base, avoid)
    assert NameSupply(avoid).fresh(base) == want
    return want


def test_fresh_name_prefers_the_bare_stem():
    assert picks("x", set()) == "x"
    assert picks("x", {"x"}) == "x'1"
    assert picks("x", {"x", "x'1"}) == "x'2"


def test_fresh_name_strips_old_primes_and_empty_stems():
    assert picks("n'3", {"n"}) == "n'1"
    assert picks("", set()) == "x"


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


def test_render_term_uses_prefix_form():
    t = App(ADD, (Var("x", EXP), App(LIT, (App(ZERO, ()),))))
    assert render_term(t) == "add(x, lit(0))"
    assert render_term(App(ZERO, ())) == "0"
