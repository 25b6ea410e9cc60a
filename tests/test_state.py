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
    TeleBuilder,
    TeleCons,
    TeleNil,
    check_state,
    pretty_state,
    state_alpha_eq,
    state_approx,
    state_map,
    state_mul,
    state_obstruction,
    state_spliced,
    state_subst,
    state_unit,
    tele_context,
    tele_goals,
    wk_state,
)
from refkit.theory import (
    Context,
    ContextMismatch,
    Substitution,
    Var,
    ctx_concat,
    subst_compose,
    subst_weaken,
)

from reference import (
    fresh_name,
    ref_rename,
    ref_state_alpha_eq,
    ref_state_mul,
    ref_state_subst,
    ref_state_unit,
)
from strategies import (
    arith_state,
    arith_state_of_states,
    arith_state_of_states_of_states,
    rand_binder_context,
    rand_context,
    rand_dep_prop,
    rand_expr,
    rand_goal,
    rand_num_term,
    rand_subst,
    rand_target,
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
        want = ref_state_unit(goal)
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


def _one_goal(goal, name):
    """The state of one goal under the binder name, handing it back."""
    flat = ctx_concat(goal.context, Context(((name, NUM),)))
    return Subgoals(
        TeleCons((name,), goal, TeleNil(flat)),
        Substitution(flat, Z, (Var(name, NUM),)),
    )


A_BINDER = Context((("a", NUM),))
Z_BINDER = Context((("z", NUM),))


@pytest.mark.parametrize(
    "stray, message",
    [
        (lambda root: Context((("z", NUM),)),
         "variable 'z' is not in the flattened context"),
        (lambda root: Context((("a", NUM), ("z", NUM))),
         "variable 'z' is not in the flattened context"),
        (lambda root: EMPTY, "subgoal context out of place in flattening"),
        # the rest extend the root of the flattening, which they keep as
        # an ancestor
        (lambda root: root, "subgoal context out of place in flattening"),
        (lambda root: ctx_concat(ctx_concat(root, A_BINDER), Z_BINDER),
         "variable 'z' is not in the flattened context"),
        (lambda root: ctx_concat(root, Z_BINDER),
         "variable 'z' is not in the flattened context"),
    ],
    ids=["unknown name", "one name too many", "one name missing",
         "shared, one entry short", "shared, one entry long",
         "shared, sibling branch"],
)
def test_flattening_rejects_a_goal_whose_context_is_not_its_scope(stray, message):
    # the second goal stands under the first one's binder a: any other
    # context is out of place, whether it is spliced from an inner state
    # or healed from a refusal
    root = Context(())
    misplaced = arith.AddGoal(stray(root), arith.nat(3), arith.nat(4))
    first = arith.AddGoal(root, arith.nat(1), arith.nat(2))
    ab_ctx = Context((("a", NUM), ("b", NUM)))
    validation = Substitution(ab_ctx, Z, (Var("b", NUM),))
    outer = Subgoals(
        TeleCons(("a",), _one_goal(first, "a"),
                 TeleCons(("b",), _one_goal(misplaced, "b"), TeleNil(ab_ctx))),
        validation,
    )
    with pytest.raises(ContextMismatch, match=message):
        state_mul(J, outer)
    refused = Subgoals(
        TeleCons(("a",), _one_goal(first, "a"),
                 TeleCons(("b",), Bot(misplaced.context, Z), TeleNil(ab_ctx))),
        validation,
    )
    before = TeleCons(("a",), first, TeleCons(("b",), misplaced, TeleNil(ab_ctx)))
    with pytest.raises(ContextMismatch, match=message):
        state_mul(J, refused, before)


def test_flattening_rejects_an_inner_state_that_leaves_a_binder_in_scope():
    # the inner telescope ends before its binder n, so n is never taken
    # out of scope, and the next goal's context lacks it
    root = Context(())
    n_ctx = ctx_concat(root, Context((("n", NUM),)))
    short = Subgoals(
        TeleCons(("n",), arith.AddGoal(root, arith.nat(1), arith.nat(2)), TeleNil(root)),
        Substitution(n_ctx, Z, (Var("n", NUM),)),
    )
    a_ctx = ctx_concat(root, A_BINDER)
    second = arith.AddGoal(a_ctx, Var("a", NUM), arith.nat(4))
    ab_ctx = ctx_concat(a_ctx, Context((("b", NUM),)))
    outer = Subgoals(
        TeleCons(("a",), short, TeleCons(("b",), _one_goal(second, "b"), TeleNil(ab_ctx))),
        Substitution(ab_ctx, Z, (Var("b", NUM),)),
    )
    with pytest.raises(ContextMismatch, match="subgoal context out of place"):
        state_mul(J, outer)


def test_flattening_accepts_a_scope_built_apart():
    # the second goal's context is its scope, but shares no ancestor with
    # the contexts before it
    first = arith.AddGoal(EMPTY, arith.nat(1), arith.nat(2))
    apart = arith.AddGoal(Context((("a", NUM),)), Var("a", NUM), arith.nat(4))
    joined = arith.AddGoal(ctx_concat(EMPTY, A_BINDER), Var("a", NUM), arith.nat(4))
    ab_ctx = Context((("a", NUM), ("b", NUM)))
    validation = Substitution(ab_ctx, Z, (Var("b", NUM),))
    flats = []
    for second in (apart, joined):
        outer = Subgoals(
            TeleCons(("a",), _one_goal(first, "a"),
                     TeleCons(("b",), _one_goal(second, "b"), TeleNil(ab_ctx))),
            validation,
        )
        flats.append(state_mul(J, outer))
        refused = Subgoals(
            TeleCons(("a",), _one_goal(first, "a"),
                     TeleCons(("b",), Bot(second.context, Z), TeleNil(ab_ctx))),
            validation,
        )
        before = TeleCons(("a",), first, TeleCons(("b",), second, TeleNil(ab_ctx)))
        flats.append(state_mul(J, refused, before))
    for flat in flats:
        check_state(J, flat)
    assert flats[0] == flats[2] and flats[1] == flats[3]
    assert [goal for _, goal in tele_goals(flats[0].telescope)][1].lhs == Var("a", NUM)


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
    real, calls = type(J).subst, []

    def counted(self, judgment, s):
        calls.append(judgment)
        return real(self, judgment, s)

    monkeypatch.setattr(type(J), "subst", counted)
    assert not state_alpha_eq(J, one, two)
    assert not state_alpha_eq(J, two, one)
    assert calls == []
    # equal counts go on to reindex the goals
    assert state_alpha_eq(J, two, two)
    assert len(calls) == 2


def add_chain(goals, last=1):
    """A residual of add goals, each adding 1 to the output of the one
    before it but the last, which adds last."""
    b = TeleBuilder(J, EMPTY)
    (n,) = b.push(arith.AddGoal(b.prefix, arith.nat(0), arith.nat(1)), ("n",))
    for i in range(1, goals):
        rhs = arith.nat(last if i == goals - 1 else 1)
        (n,) = b.push(arith.AddGoal(b.prefix, n, rhs), ("n",))
    return b.close(Substitution(b.prefix, Z, (n,)))


def test_long_residuals_compare_without_recursion():
    # as many goals as the depth-first comb of 200 `+` leaves; comparing
    # a telescope took Python frames per entry
    one, two = add_chain(600), add_chain(600)
    assert one.telescope is not two.telescope
    assert one == two
    assert one.telescope == two.telescope
    assert hash(one) == hash(two)
    assert one != add_chain(600, last=2)
    assert one != add_chain(599)
    assert add_chain(599) != one


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


# state_subst, state_mul and state_alpha_eq against the naive kernel in
# tests/reference.py, at each level of nesting: how to draw a state, and
# the structure its goals live in
LEVELS = (
    (arith_state, J),
    (arith_state_of_states, K),
    (arith_state_of_states_of_states, KK),
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


def rename_binders(state, rng):
    """A copy of state with its binders renamed at random."""
    bases = ("r", "c", "n", "v", "@0")
    return ref_rename(state, lambda name, k: rng.choice(bases + (name,)))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_subst_matches_the_reference(seed):
    rng = random.Random(seed)
    draw, structure = rng.choice(LEVELS)
    ctx = rand_context(rng)
    state = draw(rng, ctx)
    s = colliding_subst(rng, ctx) if rng.random() < 0.5 else rand_subst(rng, ctx)
    got = state_subst(structure, state, s)
    want = ref_state_subst(state, s)
    assert pretty_state(structure, got) == pretty_state(structure, want)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_mul_matches_the_reference(seed):
    rng = random.Random(seed)
    draw, structure = rng.choice(LEVELS[1:])
    state = draw(rng, rand_context(rng))
    got = state_mul(structure.base, state)
    want = ref_state_mul(state)
    assert pretty_state(structure.base, got) == pretty_state(structure.base, want)
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_state_alpha_eq_matches_the_reference(seed):
    rng = random.Random(seed)
    draw, structure = rng.choice(LEVELS)
    ctx = rand_context(rng)
    a = draw(rng, ctx)
    roll = rng.randrange(4)
    if roll == 0:
        b = a
    elif roll == 1:
        b = rename_binders(a, rng)
    elif roll == 2:
        # a renamed copy of a whose validation may differ
        b = rename_binders(a, rng)
        if isinstance(b, Subgoals):
            flat = b.validation.source
            terms = tuple(rand_num_term(rng, flat) for _ in b.target.entries)
            b = Subgoals(b.telescope, Substitution(flat, b.target, terms))
    else:
        # any other state over the same context: goals of other arities,
        # telescopes of other lengths, other targets
        b = draw(rng, ctx)
    want = ref_state_alpha_eq(a, b)
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
                want = ref_state_alpha_eq(a, b)
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


def rand_level(rng, ctx, target, depth):
    """A level of a depth-first pass over ctx, at most depth levels deep:
    (answer, below), where answer is the answer with the given target
    that the tactic gave, and below holds, for each goal of answer, in
    order, the level that answered it, or None if the goal stands."""
    walk, spine, below = ctx, [], []
    for _ in range(rng.randrange(5)):
        goal = rand_goal(rng, walk, 2)
        output = J.output(goal)
        if depth and rng.random() < 0.5:
            below.append(rand_level(rng, walk, output, depth - 1))
        else:
            below.append(None)
        taken, names = set(walk.names), []
        for base, _ in output.entries:
            names.append(fresh_name(base, taken))
            taken.add(names[-1])
        spine.append((tuple(names), goal))
        binder = tuple((n, sort) for n, (_, sort) in zip(names, output.entries))
        walk = ctx_concat(walk, Context(binder))
    tele = TeleNil(walk)
    for names, goal in reversed(spine):
        tele = TeleCons(names, goal, tele)
    terms = tuple(rand_num_term(rng, walk) for _ in target.entries)
    return Subgoals(tele, Substitution(walk, target, terms)), below


def pass_steps(level):
    """The steps a depth-first pass that made level's answers hands
    state_spliced, the last at the head, found without recursion."""
    steps, above = None, []
    answer, below = level
    tele, kids = answer.telescope, iter(below)
    while True:
        if isinstance(tele, TeleCons):
            kid = next(kids)
            if kid is not None:
                above.append((answer, tele, kids))
                answer, below = kid
                tele, kids = answer.telescope, iter(below)
                continue
            steps = ((None, (tele.goal, tele.names)), steps)
        elif above:
            ended, end = answer, tele.context
            answer, tele, kids = above.pop()
            steps = ((None, (ended, end, tele.names)), steps)
        else:
            return steps
        tele = tele.rest


def by_levels(level, unit, mul):
    """level's answers flattened level by level, the innermost first, with
    each goal that stands put in as its unit state: the state of the race
    of a star's approximants, each of which flattens at every level."""
    answer, below = level
    kids = iter(below)

    def answered(goal):
        kid = next(kids)
        return unit(goal) if kid is None else by_levels(kid, unit, mul)

    return mul(state_map(answered, answer))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_a_pass_splices_in_one_loop_as_flattening_level_by_level(seed):
    rng = random.Random(seed)
    level = rand_level(rng, rand_context(rng), rand_target(rng), 4)
    got = state_spliced(J, level[0], pass_steps(level))
    for unit, mul in (
        (lambda goal: state_unit(J, goal), lambda state: state_mul(J, state)),
        (ref_state_unit, ref_state_mul),
    ):
        want = by_levels(level, unit, mul)
        assert pretty_state(J, got) == pretty_state(J, want)
        assert got == want
    test_binder_names.assert_canonical(got)


def test_a_pass_3000_levels_deep_splices_at_the_recursion_limit():
    # each level answers with the goal the level below answered, then a
    # goal that stands and uses its output: a left comb of add goals
    n_ctx = Context((("n", NUM),))
    nm_ctx = ctx_concat(n_ctx, Context((("m", NUM),)))
    added = arith.AddGoal(n_ctx, Var("n", NUM), arith.nat(1))
    validation = Substitution(nm_ctx, arith.ADD_OUTPUT, (Var("m", NUM),))
    first = arith.AddGoal(EMPTY, arith.nat(0), arith.nat(1))
    level = (
        Subgoals(
            TeleCons(("n",), first, TeleNil(n_ctx)),
            Substitution(n_ctx, arith.ADD_OUTPUT, (Var("n", NUM),)),
        ),
        (None,),
    )
    answer = Subgoals(TeleCons(("n",), first, TeleCons(("m",), added, TeleNil(nm_ctx))), validation)
    for _ in range(3000):
        level = (answer, (level, None))
    try:
        got = state_spliced(J, answer, pass_steps(level))
    except RecursionError:
        pytest.fail("splicing a deep pass recursed", pytrace=False)
    names = ["n"] + [f"n'{i}" for i in range(1, 3001)]
    lines = ["n : add 0 1."]
    lines += [f"{name} : add {prev} 1." for prev, name in zip(names, names[1:])]
    lines.append("▹ [n'3000]")
    assert pretty_state(J, got) == "\n".join(lines)


# test_binder_names imports this module, so it is imported last, and its
# check read when a test runs
import test_binder_names  # noqa: E402
