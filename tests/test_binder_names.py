"""Every state the kernel builds has canonical binder names.

A binder is named by `NameSupply.fresh`, which hands out the first of
stem, stem'1, stem'2, ... not yet in scope.  So the names of a state's
binders are those NameSupply would hand out replayed from the state's
root context over the binders' own stems, in telescope order: a binder's
name is a function of its stem and of the names before it.  The oracle
is `fresh_name` in tests/reference.py, which searches from the first
prime every time.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit import tactic
from refkit.cli import execute
from refkit.logics import arith, dep
from refkit.state import Subgoals, TeleCons, state_mul, state_subst, state_unit

from reference import fresh_name
from strategies import (
    arith_state,
    rand_binder_context,
    rand_context,
    rand_dep_context,
    rand_dep_prop,
    rand_goal,
    rand_subst,
)
from test_cli import RUN_FUEL, rand_run
from test_state import LEVELS, colliding_subst
from test_tactic import rand_answers

J = arith.STRUCTURE


def assert_canonical(state):
    """state, and every state among its goals, names its binders as
    fresh_name would, replayed from its root context's names."""
    if not isinstance(state, Subgoals):
        return
    taken = set(state.context.names)
    tele = state.telescope
    while isinstance(tele, TeleCons):
        for name in tele.names:
            assert name == fresh_name(name, taken), (name, sorted(taken))
            taken.add(name)
        assert_canonical(tele.goal)
        tele = tele.rest


def rand_any_goal(rng):
    """A goal of either logic over a context that binds, on purpose, the
    names the unit state and the rules make their binders from."""
    if rng.random() < 0.5:
        ctx = rand_binder_context(rng, (arith.NUM, arith.EXP))
        return J, arith.RULES, rand_goal(rng, ctx, 3)
    ctx = rand_dep_context(rng)
    return dep.STRUCTURE, dep.RULES, dep.TruthGoal(ctx, rand_dep_prop(rng, ctx, 3))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_unit_and_the_shipped_rules_name_binders_canonically(seed):
    rng = random.Random(seed)
    structure, rules, goal = rand_any_goal(rng)
    assert_canonical(state_unit(structure, goal))
    for rule in rules.values():
        assert_canonical(rule.run(goal.context, goal))


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_flattening_and_substitution_name_binders_canonically(seed):
    rng = random.Random(seed)
    draw, structure = rng.choice(LEVELS)
    ctx = rand_context(rng)
    state = draw(rng, ctx)
    assert_canonical(state)
    s = colliding_subst(rng, ctx) if rng.random() < 0.5 else rand_subst(rng, ctx)
    assert_canonical(state_subst(structure, state, s))
    if structure is not J:
        assert_canonical(state_mul(structure.base, state))
    # a round's flattening: refused goals stand under binders of their own
    state = arith_state(rng, ctx, max_goals=4, terminal_chance=0.0)
    answers = rand_answers(rng, state)
    assert_canonical(state_mul(J, answers))
    assert_canonical(state_mul(J, answers, state.telescope))


def checked(build):
    def run(*args):
        for arg in args:
            assert_canonical(arg)
        state = build(*args)
        assert_canonical(state)
        return state

    return run


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_whole_runs_name_binders_canonically(seed):
    config = rand_run(random.Random(seed), RUN_FUEL)
    # every unit and every flattening the tactic machine makes, the
    # answers flattened among their arguments
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tactic, "state_unit", checked(tactic.state_unit))
        patch.setattr(tactic, "state_mul", checked(tactic.state_mul))
        outcome = execute(config)
    assert_canonical(outcome.state)
