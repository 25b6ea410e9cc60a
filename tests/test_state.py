"""Proof states: telescopes, substitution, flattening, comparison."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit.logics import arith, dep
from refkit.state import (
    Bot,
    Fail,
    StateStructure,
    Subgoals,
    TeleCons,
    TeleNil,
    check_state,
    pretty_state,
    state_alpha_eq,
    state_approx,
    state_map,
    state_mul,
    state_obstruction,
    state_subst,
    state_unit,
    tele_context,
    tele_goals,
    wk_state,
)
from refkit.theory import (
    Context,
    ContextMismatch,
    NameSupply,
    Substitution,
    Var,
    ctx_concat,
    subst_compose,
    subst_weaken,
)

from strategies import (
    arith_state,
    arith_state_of_states,
    arith_state_of_states_of_states,
    fresh_name,
    rand_binder_context,
    rand_context,
    rand_dep_prop,
    rand_expr,
    rand_goal,
    rand_num_term,
    rand_subst,
)

J = arith.STRUCTURE
K = StateStructure(J)
KK = StateStructure(K)
NUM = arith.NUM

EMPTY = Context(())
Z = Context((("z", NUM),))


def unit_eta(structure):
    return lambda goal: state_unit(structure, goal)


def identity(ctx):
    return Substitution(ctx, ctx, tuple(Var(n, srt) for n, srt in ctx.entries))


def complete(ctx, target, terms):
    return Subgoals(TeleNil(ctx), Substitution(ctx, target, terms))


def test_state_unit_hands_outputs_straight_back():
    goal = arith.EvalGoal(EMPTY, arith.num(3))
    s = state_unit(J, goal)
    check_state(J, s)
    [(names, inner)] = tele_goals(s.telescope)
    assert inner is goal
    assert names == ("c", "v")
    assert tele_context(s.telescope) == EMPTY
    assert s.validation.terms == (Var("c", NUM), Var("v", NUM))
    assert s.validation.target == arith.EVAL_OUTPUT


def test_state_unit_freshens_colliding_binder_names():
    ctx = Context((("c", NUM),))
    s = state_unit(J, arith.EvalGoal(ctx, arith.num(1)))
    [(names, _)] = tele_goals(s.telescope)
    assert names == ("c'1", "v")


def hand_state_unit(structure, goal):
    """state_unit as it was before TeleBuilder: binders named and the
    flat context threaded by hand."""
    ambient = goal.context
    output = structure.output(goal)
    scope = NameSupply(ambient.names)
    names = [scope.fresh(name) for name in output.names]
    binder = tuple((n, s) for n, (_, s) in zip(names, output.entries))
    flat = ctx_concat(ambient, Context(binder))
    tele = TeleCons(tuple(names), goal, TeleNil(flat))
    validation = Substitution(flat, output, tuple(Var(n, s) for n, s in binder))
    return Subgoals(tele, validation)


def test_state_unit_matches_the_hand_built_reference():
    primed = 0
    for seed in range(300):
        rng = random.Random(seed)
        ctx = rand_binder_context(rng, (NUM, arith.EXP))
        roll = rng.randrange(3)
        if roll == 0:
            structure, goal = J, rand_goal(rng, ctx, 2)
        elif roll == 1:
            structure, goal = K, arith_state(rng, ctx)
        else:
            ctx = rand_binder_context(rng, (dep.EXP,))
            goal = dep.TruthGoal(ctx, rand_dep_prop(rng, ctx, 3))
            structure = dep.STRUCTURE
        got = state_unit(structure, goal)
        want = hand_state_unit(structure, goal)
        assert got == want
        assert pretty_state(structure, got) == pretty_state(structure, want)
        [(names, _)] = tele_goals(got.telescope)
        primed += any("'" in n for n in names)
    assert primed >= 30


def test_check_state_rejects_a_misplaced_goal_context():
    goal = arith.AddGoal(Z, arith.nat(1), arith.nat(2))
    tele = TeleCons(("n",), goal, TeleNil(Context((("z", NUM), ("n", NUM)))))
    bad = Subgoals(tele, Substitution(Context((("z", NUM), ("n", NUM))), Z, (Var("n", NUM),)))
    check_state(J, bad)
    lying = Subgoals(
        TeleCons(("n",), arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2)), TeleNil(Context((("z", NUM), ("n", NUM))))),
        Substitution(Context((("z", NUM), ("n", NUM))), Z, (Var("n", NUM),)),
    )
    with pytest.raises(ContextMismatch):
        check_state(J, lying)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_random_states_are_well_formed(seed):
    rng = random.Random(seed)
    state = arith_state(rng, rand_context(rng))
    check_state(J, state)


def test_wk_state_prepends_front_goals():
    goal = arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2))
    front_ctx = Context((("m", NUM),))
    front = TeleCons(("m",), goal, TeleNil(front_ctx))
    back = Subgoals(TeleNil(front_ctx), Substitution(front_ctx, Z, (Var("m", NUM),)))
    joined = wk_state(J, front, back)
    check_state(J, joined)
    assert [n for n, _ in tele_goals(joined.telescope)] == [("m",)]
    assert joined.validation.terms == (Var("m", NUM),)


def test_wk_state_reboundaries_terminal_states():
    goal = arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2))
    front = TeleCons(("m",), goal, TeleNil(Context((("m", NUM),))))
    dead = Fail(Context((("m", NUM),)), Z)
    assert wk_state(J, front, dead) == Fail(EMPTY, Z)
    stuck = Bot(Context((("m", NUM),)), Z)
    assert wk_state(J, front, stuck) == Bot(EMPTY, Z)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_subst_identity_is_inert(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng)
    state = arith_state(rng, ctx)
    moved = state_subst(J, state, identity(ctx))
    assert state_alpha_eq(J, moved, state)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_subst_composes(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng)
    state = arith_state(rng, ctx)
    s = rand_subst(rng, ctx)
    s2 = rand_subst(rng, s.source)
    once = state_subst(J, state_subst(J, state, s), s2)
    both = state_subst(J, state, subst_compose(s2, s))
    assert state_alpha_eq(J, once, both)


def test_state_subst_checks_the_boundary():
    state = arith_state(random.Random(7), EMPTY)
    s = Substitution(EMPTY, Z, (arith.nat(0),))
    with pytest.raises(ContextMismatch):
        state_subst(J, state, s)


def test_state_map_keeps_binders_and_validation():
    rng = random.Random(13)
    state = arith_state(rng, EMPTY)
    while isinstance(state, (Fail, Bot)) or isinstance(state.telescope, TeleNil):
        state = arith_state(rng, EMPTY)
    swapped = state_map(lambda g: g, state)
    assert swapped == state


def test_flattening_substitutes_resolved_outputs_into_later_goals():
    # first inner state is complete with output 7; the second adds it to 1
    s1 = complete(EMPTY, Z, (arith.nat(7),))
    a_ctx = Context((("a", NUM),))
    an_ctx = Context((("a", NUM), ("n", NUM)))
    s2 = Subgoals(
        TeleCons(("n",), arith.AddGoal(a_ctx, Var("a", NUM), arith.nat(1)), TeleNil(an_ctx)),
        Substitution(an_ctx, Z, (Var("n", NUM),)),
    )
    ab_ctx = Context((("a", NUM), ("b", NUM)))
    outer = Subgoals(
        TeleCons(("a",), s1, TeleCons(("b",), s2, TeleNil(ab_ctx))),
        Substitution(ab_ctx, Context((("o", NUM),)), (Var("b", NUM),)),
    )
    check_state(K, outer)
    flat = state_mul(J, outer)
    check_state(J, flat)
    n_ctx = Context((("n", NUM),))
    expected = Subgoals(
        TeleCons(("n",), arith.AddGoal(EMPTY, arith.nat(7), arith.nat(1)), TeleNil(n_ctx)),
        Substitution(n_ctx, Context((("o", NUM),)), (Var("n", NUM),)),
    )
    assert state_alpha_eq(J, flat, expected)


def test_flattening_reports_the_leftmost_terminal():
    dead = Fail(EMPTY, Z)
    p_ctx = Context((("p", NUM),))
    outer = Subgoals(
        TeleCons(("p",), dead, TeleCons(("q",), Bot(p_ctx, Z), TeleNil(Context((("p", NUM), ("q", NUM)))))),
        Substitution(Context((("p", NUM), ("q", NUM))), Z, (Var("q", NUM),)),
    )
    assert state_mul(J, outer) == Fail(EMPTY, Z)


def test_flattening_prefers_an_obstruction_buried_in_an_earlier_layer():
    # inner layer holds a Bot; a Fail shows up later in the outer layer.
    # both flattening orders must agree, and the buried Bot wins.
    o0_ctx = Context((("o0", NUM),))
    t1 = Subgoals(
        TeleCons(("o0",), Bot(EMPTY, Z), TeleNil(o0_ctx)),
        Substitution(o0_ctx, Z, (arith.nat(5),)),
    )
    p_ctx = Context((("p", NUM),))
    t2 = Fail(p_ctx, Z)
    pq_ctx = Context((("p", NUM), ("q", NUM)))
    sss = Subgoals(
        TeleCons(("p",), t1, TeleCons(("q",), t2, TeleNil(pq_ctx))),
        Substitution(pq_ctx, Context((("o", NUM),)), (Var("q", NUM),)),
    )
    check_state(KK, sss)
    inner_first = state_mul(J, state_map(lambda s: state_mul(J, s), sss))
    outer_first = state_mul(J, state_mul(K, sss))
    assert state_alpha_eq(J, inner_first, outer_first)
    assert isinstance(inner_first, Bot)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flatten_after_unit_is_identity(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng)
    state = arith_state(rng, ctx)
    outer = state_unit(K, state)
    assert state_alpha_eq(J, state_mul(J, outer), state)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flatten_after_mapped_unit_is_identity(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng)
    state = arith_state(rng, ctx)
    lifted = state_map(unit_eta(J), state)
    assert state_alpha_eq(J, state_mul(J, lifted), state)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flattening_order_does_not_matter(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng)
    sss = arith_state_of_states_of_states(rng, ctx)
    inner_first = state_mul(J, state_map(lambda s: state_mul(J, s), sss))
    outer_first = state_mul(J, state_mul(K, sss))
    assert state_alpha_eq(J, inner_first, outer_first)


def test_alpha_equality_ignores_binder_names_only():
    goal = arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2))
    m_ctx = Context((("m", NUM),))
    n_ctx = Context((("n", NUM),))
    left = Subgoals(
        TeleCons(("m",), goal, TeleNil(m_ctx)),
        Substitution(m_ctx, Z, (Var("m", NUM),)),
    )
    right = Subgoals(
        TeleCons(("n",), goal, TeleNil(n_ctx)),
        Substitution(n_ctx, Z, (Var("n", NUM),)),
    )
    other = Subgoals(
        TeleCons(("n",), goal, TeleNil(n_ctx)),
        Substitution(n_ctx, Z, (arith.nat(9),)),
    )
    assert state_alpha_eq(J, left, right)
    assert not state_alpha_eq(J, left, other)


def test_alpha_equality_compares_goal_counts_before_reindexing(monkeypatch):
    # the two-goal state starts with the one-goal state's goal, so only
    # the count tells them apart before that goal is reindexed
    m_ctx = Context((("m", NUM),))
    mn_ctx = Context((("m", NUM), ("n", NUM)))
    goal = arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2))
    one = Subgoals(
        TeleCons(("m",), goal, TeleNil(m_ctx)),
        Substitution(m_ctx, Z, (Var("m", NUM),)),
    )
    later = arith.AddGoal(m_ctx, Var("m", NUM), arith.nat(2))
    two = Subgoals(
        TeleCons(("m",), goal, TeleCons(("n",), later, TeleNil(mn_ctx))),
        Substitution(mn_ctx, Z, (Var("n", NUM),)),
    )
    check_state(J, two)
    real, calls = J.subst, []

    def counted(judgment, s):
        calls.append(judgment)
        return real(judgment, s)

    monkeypatch.setattr(J, "subst", counted)
    assert not state_alpha_eq(J, one, two)
    assert not state_alpha_eq(J, two, one)
    assert calls == []
    # equal counts go on to reindex the goals
    assert state_alpha_eq(J, two, two)
    assert len(calls) == 2


def test_approx_puts_bot_below_everything_at_its_boundary():
    state = arith_state(random.Random(3), EMPTY)
    stuck = Bot(EMPTY, state.target)
    assert state_approx(J, stuck, state)
    assert state_approx(J, stuck, Fail(EMPTY, state.target))
    assert not state_approx(J, Fail(EMPTY, state.target), stuck)
    assert not state_approx(J, Bot(Z, state.target), state)


def test_obstruction_scans_into_nested_layers():
    assert state_obstruction(J, Fail(EMPTY, Z)) == "fail"
    assert state_obstruction(J, Bot(EMPTY, Z)) == "bot"
    goal = arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2))
    assert state_obstruction(J, state_unit(J, goal)) is None
    o0_ctx = Context((("o0", NUM),))
    buried = Subgoals(
        TeleCons(("o0",), Bot(EMPTY, Z), TeleNil(o0_ctx)),
        Substitution(o0_ctx, Z, (Var("o0", NUM),)),
    )
    assert state_obstruction(K, buried) == "bot"


def test_pretty_state_formats():
    assert pretty_state(J, Fail(EMPTY, Z)) == "FAIL"
    assert pretty_state(J, Bot(EMPTY, Z)) == "BOT"
    assert pretty_state(J, complete(EMPTY, Z, (arith.nat(4),))) == "▹ [4]"
    shown = pretty_state(J, state_unit(J, arith.EvalGoal(EMPTY, arith.num(3))))
    assert shown == "[c, v] : eval num 3.\n▹ [c, v]"


def test_state_structure_delegates_to_state_operations():
    rng = random.Random(21)
    state = arith_state(rng, EMPTY)
    K.check(state)
    assert K.output(state) == state.target
    assert K.alpha_eq(state, state)
    assert K.approx(Bot(EMPTY, state.target), state)
    assert K.render(state) == pretty_state(J, state)


def test_weakening_prefix_drops_into_a_larger_context():
    rng = random.Random(5)
    state = arith_state(rng, EMPTY)
    wide = Context((("w0", NUM), ("w1", NUM)))
    moved = state_subst(J, state, subst_weaken(wide, EMPTY))
    assert moved.context == wide
    check_state(J, moved) if isinstance(moved, Subgoals) else None


# the reference versions of state_subst and state_alpha_eq: push the
# substitution under one binder at a time, and compare both sides renamed
# onto a shared @k spine


def _extend_binder(s, binder, fresh_names):
    """s : A -> B pushed under binder over B, its names renamed to fresh_names."""
    renamed = tuple((f, srt) for f, (_, srt) in zip(fresh_names, binder))
    return Substitution(
        ctx_concat(s.source, Context(renamed)),
        ctx_concat(s.target, Context(binder)),
        s.terms + tuple(Var(f, srt) for f, srt in renamed),
    )


def _push_under(structure, tele, s, pick):
    """The goals of tele moved along s, binders renamed by pick(name, taken)."""
    moved = []
    for names, goal in tele_goals(tele):
        new_goal = structure.subst(goal, s)
        output = structure.output(goal)
        taken = set(s.source.names)
        fresh = []
        for name in names:
            picked = pick(name, taken)
            taken.add(picked)
            fresh.append(picked)
        binder = tuple((n, srt) for n, (_, srt) in zip(names, output.entries))
        s = _extend_binder(s, binder, tuple(fresh))
        moved.append((tuple(fresh), new_goal))
    out = TeleNil(s.source)
    for names, goal in reversed(moved):
        out = TeleCons(names, goal, out)
    return out, s


def reference_state_subst(structure, state, s):
    if state.context != s.target:
        raise ContextMismatch("substitution target does not match the state")
    match state:
        case Fail(_, target):
            return Fail(s.source, target)
        case Bot(_, target):
            return Bot(s.source, target)
        case Subgoals(tele, validation):
            new_tele, full = _push_under(structure, tele, s, fresh_name)
            return Subgoals(new_tele, subst_compose(full, validation))
    raise AssertionError(state)


def reference_state_alpha_eq(structure, a, b):
    match a, b:
        case Fail(ca, ta), Fail(cb, tb):
            return ca == cb and ta == tb
        case Bot(ca, ta), Bot(cb, tb):
            return ca == cb and ta == tb
        case Subgoals(ta, va), Subgoals(tb, vb):
            if a.context != b.context or va.target != vb.target:
                return False
            ra = identity(a.context)
            rb = identity(b.context)
            spine = 0
            while isinstance(ta, TeleCons) and isinstance(tb, TeleCons):
                if len(ta.names) != len(tb.names):
                    return False
                sorts_a = tuple(s for _, s in structure.output(ta.goal).entries)
                sorts_b = tuple(s for _, s in structure.output(tb.goal).entries)
                if sorts_a != sorts_b:
                    return False
                ga_canon = structure.subst(ta.goal, ra)
                gb_canon = structure.subst(tb.goal, rb)
                if not structure.alpha_eq(ga_canon, gb_canon):
                    return False
                taken = set(ra.source.names) | set(rb.source.names)
                picked = []
                for i in range(len(ta.names)):
                    name = fresh_name(f"@{spine + i}", taken)
                    taken.add(name)
                    picked.append(name)
                canon = tuple(picked)
                spine += len(ta.names)
                ra = _extend_binder(ra, tuple(zip(ta.names, sorts_a)), canon)
                rb = _extend_binder(rb, tuple(zip(tb.names, sorts_b)), canon)
                ta, tb = ta.rest, tb.rest
            if not (isinstance(ta, TeleNil) and isinstance(tb, TeleNil)):
                return False
            return subst_compose(ra, va) == subst_compose(rb, vb)
    return False


class ReferenceStates(StateStructure):
    """States seen as judgments, moved and compared by the references."""

    def subst(self, judgment, s):
        return reference_state_subst(self.base, judgment, s)

    def alpha_eq(self, a, b):
        return reference_state_alpha_eq(self.base, a, b)


# each level of nesting: how to draw a state, the structure its goals
# live in, and the same structure for the references
LEVELS = (
    (arith_state, J, J),
    (arith_state_of_states, K, ReferenceStates(J)),
    (arith_state_of_states_of_states, KK, ReferenceStates(ReferenceStates(J))),
)


def colliding_subst(rng, target):
    """A substitution into target whose source binds the names the
    binders of arith states are made from, so moved binders get primed."""
    pool = ["c", "v", "n", "c'1", "n'1", "o0", "xc", "xv", "zc1", "g0"]
    rng.shuffle(pool)
    source = Context(
        tuple((name, rng.choice((NUM, arith.EXP))) for name in pool[: rng.randrange(6)])
    )
    terms = tuple(
        rand_num_term(rng, source) if sort == NUM else rand_expr(rng, source, 2)
        for _, sort in target.entries
    )
    return Substitution(source, target, terms)


def rename_binders(structure, state, rng):
    """A copy of state with its binders renamed at random."""
    if not isinstance(state, Subgoals):
        return state

    def pick(name, taken):
        return fresh_name(rng.choice(("r", "c", "n", "v", "@0", name)), taken)

    tele, full = _push_under(
        structure, state.telescope, identity(state.context), pick
    )
    return Subgoals(tele, subst_compose(full, state.validation))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_subst_matches_the_reference(seed):
    rng = random.Random(seed)
    draw, structure, reference = rng.choice(LEVELS)
    ctx = rand_context(rng)
    state = draw(rng, ctx)
    s = colliding_subst(rng, ctx) if rng.random() < 0.5 else rand_subst(rng, ctx)
    got = state_subst(structure, state, s)
    want = reference_state_subst(reference, state, s)
    assert pretty_state(structure, got) == pretty_state(structure, want)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_alpha_eq_matches_the_reference(seed):
    rng = random.Random(seed)
    draw, structure, reference = rng.choice(LEVELS)
    ctx = rand_context(rng)
    a = draw(rng, ctx)
    roll = rng.randrange(4)
    if roll == 0:
        b = a
    elif roll == 1:
        b = rename_binders(reference, a, rng)
    elif roll == 2:
        # a renamed copy of a whose validation may differ
        b = rename_binders(reference, a, rng)
        if isinstance(b, Subgoals):
            flat = b.validation.source
            terms = tuple(rand_num_term(rng, flat) for _ in b.target.entries)
            b = Subgoals(b.telescope, Substitution(flat, b.target, terms))
    else:
        # any other state over the same context: goals of other arities,
        # telescopes of other lengths, other targets
        b = draw(rng, ctx)
    want = reference_state_alpha_eq(reference, a, b)
    assert state_alpha_eq(structure, a, b) == want
    assert state_alpha_eq(structure, b, a) == want
    if roll < 2:
        assert want


def test_state_alpha_eq_matches_the_reference_when_binder_sorts_differ():
    # one refused goal each, with targets of equal arity but other sorts
    exp_out = Context((("o0", arith.EXP),))
    num_out = Context((("o0", NUM),))
    for ctx in (EMPTY, Context((("g0", NUM),))):
        states = []
        for out, sort in ((num_out, NUM), (exp_out, arith.EXP)):
            for refusal in (Fail, Bot):
                flat = ctx_concat(ctx, Context((("p", sort),)))
                states.append(
                    Subgoals(
                        TeleCons(("p",), refusal(ctx, out), TeleNil(flat)),
                        Substitution(flat, Z, (arith.nat(1),)),
                    )
                )
        for a in states:
            for b in states:
                want = reference_state_alpha_eq(ReferenceStates(J), a, b)
                assert state_alpha_eq(K, a, b) == want
                assert want == (a == b)


def test_state_subst_primes_binders_the_source_already_binds():
    g0 = Context((("g0", arith.EXP),))
    goal = arith.EvalGoal(g0, arith.plus(Var("g0", arith.EXP), arith.num(1)))
    answer = arith.PLUS_EVAL.run(g0, goal)
    source = Context((("xc", NUM), ("xv", arith.EXP), ("xc'1", NUM)))
    s = Substitution(source, g0, (Var("xv", arith.EXP),))
    assert pretty_state(J, state_subst(J, answer, s)) == (
        "[xc'2, xv'1] : eval xv.\n"
        "[yc, yv] : eval num 1.\n"
        "zc : add xc'2 yc.\n"
        "zc1 : add 1 zc.\n"
        "zv : add xv'1 yv.\n"
        "▹ [zc1, zv]"
    )
