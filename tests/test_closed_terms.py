"""Closed terms: the free variables an App records and the walks that use them.

The walks that hand a closed subterm back at once, substitution and
opening past a binder among them, must give the results of the naive
walks in `tests/reference.py` and raise the same errors.
"""

import gc
import random
import sys
from dataclasses import FrozenInstanceError, fields

import pytest

from refkit import tactic, theory
from refkit.cli import RunConfig, execute
from refkit.judgment import goal_support
from refkit.logics import arith, dep
from refkit.state import Bot, Fail, Subgoals, TeleCons, TeleNil, state_unit
from refkit.theory import (
    App,
    Context,
    ContextMismatch,
    Operator,
    Sort,
    Substitution,
    UnsortedTerm,
    Var,
    check_term,
    instantiate,
    subst_apply,
    term_vars,
)

from reference import (
    outcome,
    ref_check,
    ref_eq,
    ref_free,
    ref_open,
    ref_subst,
    slot_extend,
)
from strategies import (
    rand_closed_expr,
    rand_context,
    rand_dep_context,
    rand_dep_exp,
    rand_dep_prop,
    rand_dep_subst,
    rand_expr,
    rand_goal,
    rand_num_term,
    rand_subst,
)

# --------------------------------------------------------------- helpers


def subterms(t):
    yield t
    if isinstance(t, App):
        for a in t.args:
            yield from subterms(a)


def agree(f, ref, *args):
    got = outcome(f, *args)
    assert got == outcome(ref, *args)
    return got[0] == "raised"


def assert_flag_and_identity(t, walk=None):
    """An App records exactly the free variables below it, closed holds
    exactly when there are none, and walk hands every closed subterm back
    as the same object."""
    for u in subterms(t):
        if isinstance(u, App):
            assert u.free == ref_free(u)
            assert u.closed == (not ref_free(u))
            if u.closed and walk is not None:
                assert walk(u) is u


def missing_first(s):
    """s without its first target variable, so a term using it is not
    covered."""
    return Substitution(s.source, Context(s.target.entries[1:]), s.terms[1:])


# ------------------------------------------------------------------ arith


def rand_arith_term(rng, ctx):
    if rng.random() < 0.2:
        return rand_num_term(rng, ctx)
    if rng.random() < 0.2:
        return rand_closed_expr(rng, 4)
    return rand_expr(rng, ctx, 4)


def test_the_flag_stays_out_of_repr_equality_and_hash():
    t = arith.plus(arith.num(1), Var("x", arith.EXP))
    assert repr(t) == (
        "App(op=Operator(name='+', arg_sorts=(Sort('exp'), Sort('exp')), "
        "result=Sort('exp')), args=(App(op=Operator(name='num', "
        "arg_sorts=(Sort('num'),), result=Sort('exp')), args=(App("
        "op=Operator(name='1', arg_sorts=(), result=Sort('num')), args=()),)), "
        "Var(name='x', sort=Sort('exp'))))"
    )
    assert repr(dep.pair(dep.tt(), dep.SLOT)) == (
        "App(op=Operator(name='pair', arg_sorts=(Sort('exp'), Sort('exp')), "
        "result=Sort('exp')), args=(App(op=Operator(name='tt', arg_sorts=(), "
        "result=Sort('exp')), args=()), Var(name='$x', sort=Sort('exp'))))"
    )
    closed = arith.num(1)
    assert repr(dep.SIG_OP) == (
        "Operator(name='sig', arg_sorts=(Sort('prop'), Sort('prop')), "
        "result=Sort('prop'))"
    )
    assert closed.closed and not t.closed
    again = arith.plus(arith.num(1), Var("x", arith.EXP))
    assert again is t and hash(again) == hash(t)
    assert t == arith.plus(arith.num(1), Var("x", arith.EXP))


def test_each_closed_term_gets_its_own_empty_variable_set():
    closed = arith.plus(arith.num(1), arith.num(2))
    first = term_vars(closed)
    assert first == set()
    first.add("y")
    assert term_vars(closed) == set()
    assert term_vars(closed.args[0]) is not term_vars(closed.args[0])


def test_subst_apply_matches_the_reference():
    raised = 0
    for seed in range(300):
        rng = random.Random(seed)
        target = rand_context(rng, 3)
        t = rand_arith_term(rng, target)
        s = rand_subst(rng, target)
        short = missing_first(s)
        assert not agree(subst_apply, ref_subst, t, s)
        raised += agree(subst_apply, ref_subst, t, short)
        assert_flag_and_identity(t, lambda u: subst_apply(u, short))
    assert raised >= 30


def test_check_term_matches_the_reference():
    raised = set()
    for seed in range(300):
        rng = random.Random(seed)
        ctx = rand_context(rng, 3)
        t = rand_arith_term(rng, ctx)
        check_term(ctx, t)
        # another context may miss a variable or bind it at another sort
        other = rand_context(rng, 3)
        got = outcome(check_term, other, t)
        assert got == outcome(ref_check, other, t)
        raised.add(got[1] if got[0] == "raised" else None)
        assert_flag_and_identity(t, lambda u: check_term(Context(()), u) or u)
    assert {ContextMismatch, UnsortedTerm} <= raised


def test_term_vars_matches_the_reference():
    for seed in range(300):
        rng = random.Random(seed)
        t = rand_arith_term(rng, rand_context(rng, 3))
        assert term_vars(t) == {v.name for v in ref_free(t)}
        assert_flag_and_identity(t)


# -------------------------------------------------------------------- dep


def test_walk_matches_the_reference():
    """subst_apply carries a substitution past a sig binder, also one that
    misses a variable, and instantiate opens a body, as the reference
    does."""
    raised = 0
    for seed in range(300):
        rng = random.Random(seed)
        ctx = rand_dep_context(rng)
        # a body mentions its slot `$x` and may hold sigs of its own
        body = rand_dep_prop(rng, slot_extend(ctx), 4)
        if rng.random() < 0.3:
            # the slot's name at sort prop, which no sig binds
            body = dep.or_(Var(dep.SLOT.name, dep.PROP), body)
        prop = App(dep.SIG_OP, (rand_dep_prop(rng, ctx, 3), body))
        for t, target in ((prop, ctx), (body, slot_extend(ctx))):
            s = rand_dep_subst(rng, target)
            short = missing_first(s)
            for sub in (s, short):
                raised += agree(subst_apply, ref_subst, t, sub)
                assert_flag_and_identity(t, lambda u: subst_apply(u, sub))
            witness = rand_dep_exp(rng, ctx, 2)
            opened = ref_open(t, dep.SLOT, witness)
            assert instantiate(t, dep.SLOT, witness) == opened
            assert_flag_and_identity(
                t, lambda u: instantiate(u, dep.SLOT, witness)
            )
    assert raised >= 30


def test_check_prop_matches_the_reference():
    raised = set()
    for seed in range(300):
        rng = random.Random(seed)
        ctx = rand_dep_context(rng)
        prop = rand_dep_prop(rng, ctx, 4)
        check_term(ctx, prop)
        if rng.random() < 0.3:
            # a proposition variable, bound nowhere or at sort exp
            prop = dep.or_(Var("g0", dep.PROP), prop)
        if rng.random() < 0.3:
            # the slot's name at sort prop in a body, bound by no sig
            body = dep.or_(Var(dep.SLOT.name, dep.PROP), prop)
            prop = App(dep.SIG_OP, (dep.top(), body))
        for other in (
            rand_dep_context(rng),
            Context((("g0", arith.NUM),)),
            Context(((dep.SLOT.name, dep.PROP),)),
        ):
            got = outcome(check_term, other, prop)
            assert got == outcome(ref_check, other, prop)
            raised.add(got[1] if got[0] == "raised" else None)
        assert_flag_and_identity(prop, lambda u: check_term(Context(()), u) or u)
    assert {ContextMismatch, UnsortedTerm} <= raised


def test_a_sig_closed_but_for_its_slot_is_closed():
    y = Var("y", dep.EXP)
    mentions_slot = App(dep.SIG_OP, (dep.top(), dep.eq(dep.SLOT, dep.tt())))
    assert mentions_slot.closed and not mentions_slot.args[1].closed
    assert term_vars(mentions_slot) == set()
    mentions_y = App(dep.SIG_OP, (dep.top(), dep.eq(dep.SLOT, y)))
    assert mentions_y.free == {y}
    assert term_vars(mentions_y.args[1]) == {"$x", "y"}
    # the slot at another sort is not the bound variable
    other_sort = App(dep.SIG_OP, (dep.top(), Var(dep.SLOT.name, dep.PROP)))
    assert other_sort.free == {Var(dep.SLOT.name, dep.PROP)}
    # the base of a sig is not in the body's scope
    in_base = App(dep.SIG_OP, (dep.eq(dep.SLOT, dep.tt()), dep.top()))
    assert in_base.free == {dep.SLOT}


def test_the_slot_name_at_another_sort_is_free_to_every_walk():
    """A sig body binds its slot, name and sort: `$x : prop` in a body is
    free to App.free, subst_apply, instantiate and check_term alike."""
    x_prop = Var(dep.SLOT.name, dep.PROP)
    t = App(dep.SIG_OP, (dep.top(), x_prop))
    ctx = Context(((dep.SLOT.name, dep.PROP),))
    assert t.free == {x_prop}
    assert subst_apply(t, Substitution(ctx, ctx, (x_prop,))) == t
    check_term(ctx, t)
    assert instantiate(t, dep.SLOT, dep.tt()) == t
    with pytest.raises(ContextMismatch):
        check_term(Context(()), t)


DEEP = 10_000


def pair_spine(bottom):
    """pair(pair(…pair(bottom, tt)…, tt), tt), DEEP pairs deep."""
    for _ in range(DEEP):
        bottom = dep.pair(bottom, dep.tt())
    return bottom


def sig_nest(bottom):
    """sig(top, sig(top, …sig(top, eq(bottom, $x))…)), DEEP sigs deep,
    each nested in the body of the one above it."""
    prop = dep.eq(bottom, dep.SLOT)
    for _ in range(DEEP):
        prop = App(dep.SIG_OP, (dep.top(), prop))
    return prop


def flat(walk, *args):
    """walk(*args), or a short failure if it runs out of frames: pytest
    takes minutes to print a traceback that deep over these terms."""
    try:
        return walk(*args)
    except RecursionError:
        pass
    pytest.fail(f"{walk.__name__} recursed once per level", pytrace=False)


@pytest.mark.parametrize("build", [pair_spine, sig_nest])
def test_the_walks_take_no_frame_per_level(build):
    g = Var("g", dep.EXP)
    ctx = Context((("g", dep.EXP),))
    t, want = build(g), build(dep.tt())
    to_tt = Substitution(Context(), ctx, (dep.tt(),))
    assert flat(subst_apply, t, to_tt) == want
    assert flat(instantiate, t, g, dep.tt()) == want
    flat(check_term, ctx, t)
    with pytest.raises(ContextMismatch):
        flat(check_term, Context(), t)
    target = Context((("t", t.op.result),))
    assert flat(Substitution, ctx, target, (t,)).terms == (t,)
    # built again, the same object, with the same hash
    again = build(dep.tt())
    assert again is want and flat(hash, want) == hash(again)


def test_equality_matches_the_field_tuples():
    """The iterative App.__eq__ agrees with comparing (op, args) and with
    a recursive structural reference, on equal and unequal pairs."""
    unequal = 0
    for seed in range(300):
        terms = []
        for draw_seed in (seed, seed, seed + 1):
            rng = random.Random(draw_seed)
            ctx = rand_dep_context(rng)
            terms.append(rand_dep_prop(rng, ctx, 4))
            terms.append(rand_arith_term(rng, rand_context(rng, 3)))
        terms += [Var("g0", dep.EXP), Var("g0", dep.EXP), dep.tt()]
        for a in terms:
            for b in terms:
                got = a == b
                assert got == ref_eq(a, b)
                assert (a != b) == (not got)
                if isinstance(a, App) and isinstance(b, App):
                    assert got == ((a.op, a.args) == (b.op, b.args))
                    assert not got or hash(a) == hash(b)
                unequal += not got
        assert terms[0] == terms[2] and terms[0] is terms[2]
    assert unequal >= 300


def test_equality_of_deep_terms_does_not_recurse():
    def chain(leaf):
        t = leaf
        for _ in range(5000):
            t = dep.inl(t)
        return t

    assert chain(dep.tt()) == chain(dep.tt())
    assert chain(dep.tt()) != chain(dep.refl())



# ------------------------------------------------------------ interning


def positional_dep_goal(levels):
    """A sig chain with an `or` level every third level, and the script
    that proves it level by level, as in the dep-positional workload."""
    prop, witness, script = "top", "tt", "top_i"
    for level in range(levels):
        if level % 3 == 2:
            prop = f"or({prop}, top)"
            witness = f"inl({witness})"
            script = f"or_i1; [{script}]"
        else:
            prop = f"sig(x. eq(x, {witness}), {prop})"
            witness = f"pair({witness}, refl)"
            script = f"sig_i; [{script}, eq_refl]"
    return "true " + prop, script


def test_equal_terms_built_apart_are_one_object():
    text = "eval num 7 + (num 7 + num 1)"
    assert arith.parse_goal(text).expr is arith.parse_goal(text).expr
    prop, script = positional_dep_goal(12)
    assert dep.parse_goal(prop).prop is dep.parse_goal(prop).prop
    assert arith.nat(7) is arith.nat(7)
    assert arith.nat(7).op is Operator("7", (), arith.NUM)
    assert Operator("f", (dep.EXP,), dep.PROP) is Operator("f", (dep.EXP,), dep.PROP)
    # the binds are part of what an operator is
    assert Operator("sig", (dep.PROP, dep.PROP), dep.PROP) is not dep.SIG_OP
    # the evidence a run builds is the oracle's term, not a copy of it
    out = execute(RunConfig("dep", prop, script))
    assert out.status == "complete"
    [extract] = out.state.validation.terms
    assert extract is dep.prove_oracle(dep.parse_goal(prop).prop)


def test_the_table_holds_terms_weakly():
    gc.collect()
    before = len(theory._TABLE)
    t = dep.tt()
    for _ in range(5000):
        t = dep.inl(t)
    assert len(theory._TABLE) >= before + 5000
    del t
    gc.collect()
    assert len(theory._TABLE) == before


def test_a_term_failing_its_sort_check_is_not_kept():
    args = (dep.top(),)
    for _ in range(2):
        with pytest.raises(UnsortedTerm):
            App(dep.INL_OP, args)
        assert (dep.INL_OP, args) not in theory._TABLE


def test_a_state_holding_a_deep_goal_hashes():
    # a left comb of 1500 +, as the goal parser builds it
    goal = arith.parse_goal("eval " + " + ".join(["num 1"] * 1501))
    state = state_unit(arith.STRUCTURE, goal)
    again = App(goal.expr.op, goal.expr.args)
    assert again is goal.expr and flat(hash, goal.expr) == hash(again)
    assert flat(hash, state) == hash(state_unit(arith.STRUCTURE, goal))


def test_a_sort_is_one_object_per_name():
    assert Sort("exp") is arith.EXP is dep.EXP
    assert Sort(name="num") is arith.NUM
    assert repr(dep.EXP) == "Sort('exp')"
    with pytest.raises(FrozenInstanceError):
        dep.EXP.name = "prop"
    assert dep.EXP.name == "exp"


def test_the_table_holds_sorts_weakly():
    gc.collect()
    before = len(theory._TABLE)
    sort = Sort("held by nothing else")
    assert theory._TABLE[("held by nothing else",)]() is sort
    del sort
    gc.collect()
    assert ("held by nothing else",) not in theory._TABLE
    assert len(theory._TABLE) == before


def test_a_term_hashes_by_identity():
    assert App.__hash__ is object.__hash__
    t = dep.pair(dep.tt(), dep.refl())
    assert hash(t) == object.__hash__(t)


def test_building_a_term_runs_no_python_hash_or_eq():
    """The table lookup, the sort checks and the free sets of a fresh
    closed term hash and compare in C only."""
    calls = []

    def probe(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__hash__", "__eq__"):
            calls.append(f"{code.co_filename}:{code.co_firstlineno} {code.co_name}")

    sys.setprofile(probe)
    try:
        dep.pair(dep.inl(dep.pair(dep.tt(), dep.refl())), dep.refl())
        arith.num(987654)
    finally:
        sys.setprofile(None)
    assert calls == []


def test_building_an_open_term_or_a_rule_answer_runs_no_python_hash_or_eq():
    """Open terms, a sig body opened by instantiate and a rule's answer,
    with its fresh binders, hash and compare their variables in C only."""
    calls = []

    def probe(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name in ("__hash__", "__eq__"):
            calls.append(f"{code.co_filename}:{code.co_firstlineno} {code.co_name}")

    body = dep.eq(dep.SLOT, dep.inl(dep.refl()))
    empty = Context(())
    goal = arith.EvalGoal(empty, arith.plus(arith.num(3), arith.num(4)))
    sys.setprofile(probe)
    try:
        dep.pair(dep.tt(), dep.SLOT)
        arith.plus(arith.num(1), Var("x", arith.EXP))
        instantiate(body, dep.SLOT, dep.pair(dep.tt(), dep.refl()))
        answer = arith.PLUS_EVAL.run(empty, goal)
    finally:
        sys.setprofile(None)
    assert calls == []
    assert isinstance(answer.telescope, TeleCons)


# ---------------------------------------------------------- kernel values


def test_a_var_is_its_name_and_sort():
    """A Var is a named tuple of its name and sort: its repr is the one a
    data class prints, and it is equal to, and hashes as, another Var with
    the same name and sort.  So a Var now equals the plain tuple
    (name, sort) too; no kernel table keys both, as `_TABLE` keys only
    field tuples of sorts, operators and terms, and a context's entries
    are never looked up among variables."""
    x = Var("x", arith.EXP)
    assert repr(x) == "Var(name='x', sort=Sort('exp'))"
    assert x == Var("x", arith.EXP) and hash(x) == hash(Var("x", arith.EXP))
    assert x != Var("x", arith.NUM) and x != Var("y", arith.EXP)
    # the hash a frozen data class of these two fields had
    assert hash(x) == hash((x.name, x.sort))
    assert x == ("x", arith.EXP)
    assert x != arith.num(1) and arith.num(1) != x
    match x:
        case Var(name, sort):
            assert (name, sort) == ("x", arith.EXP)
        case _:
            pytest.fail("a Var does not match Var(name, sort)")
    with pytest.raises(AttributeError):
        x.name = "y"
    assert x.name == "x"


def test_kernel_values_have_no_instance_dict():
    ctx = Context((("g0", arith.NUM),))
    state = state_unit(arith.STRUCTURE, arith.EvalGoal(ctx, arith.num(1)))
    values = [
        state.telescope.goal,
        arith.AddGoal(ctx, arith.nat(1), arith.nat(2)),
        dep.TruthGoal(ctx, dep.top()),
        state,
        state.telescope,
        state.telescope.rest,
        state.validation,
        Fail(ctx, ctx),
        Bot(ctx, ctx),
        tactic.Now(state),
        tactic.NEVER,
        tactic.Race(tactic.NEVER, tactic.NEVER),
    ]
    assert {type(v) for v in values} == {
        arith.EvalGoal, arith.AddGoal, dep.TruthGoal, Subgoals, TeleCons,
        TeleNil, Substitution, Fail, Bot, tactic.Now, tactic.Later, tactic.Race,
    }
    for value in values:
        assert not hasattr(value, "__dict__"), type(value).__name__
        with pytest.raises(FrozenInstanceError):
            setattr(value, fields(value)[0].name, None)


def field_shape(goal):
    """tactic._shape, read through dataclasses.fields."""
    shape = [goal.__class__]
    first = {}
    for f in fields(goal):
        value = getattr(goal, f.name)
        if isinstance(value, Var):
            shape.append((Var, first.setdefault(value.name, len(first)), value.sort))
        elif isinstance(value, App):
            if ref_free(value):
                return None
            shape.append(value)
        elif f.name != "context":
            shape.append(value)
    return tuple(shape)


def field_support(goal):
    """judgment.goal_support, read through dataclasses.fields."""
    values = [getattr(goal, f.name) for f in fields(goal)]
    return {v.name for t in values if isinstance(t, (Var, App)) for v in ref_free(t)}


def test_shape_and_support_read_every_field_of_a_goal():
    shapes = set()
    for seed in range(300):
        rng = random.Random(seed)
        ctx = rand_context(rng, 3)
        dep_ctx = rand_dep_context(rng)
        for goal in (
            rand_goal(rng, ctx, 3),
            rand_goal(rng, Context(()), 3),
            dep.TruthGoal(dep_ctx, rand_dep_prop(rng, dep_ctx, 3)),
        ):
            shape = tactic._shape(goal)
            assert shape == field_shape(goal)
            assert goal_support(goal) == field_support(goal)
            shapes.add(shape is None)
    assert shapes == {True, False}
