"""Delayed computations, tacticals, and repetition."""

import pytest

from refkit.logics import arith
from refkit.state import (
    Bot,
    Fail,
    StateStructure,
    Subgoals,
    TeleNil,
    state_alpha_eq,
    state_unit,
    tele_goals,
)
from refkit.tactic import (
    NEVER,
    Later,
    Now,
    OutOfFuel,
    Race,
    Resolved,
    all_mt,
    bind,
    each_mt,
    fix,
    force,
    from_rule,
    id_tactic,
    lub,
    never_tactic,
    orelse,
    race,
    repeat,
    repeat_multitactic,
    run_delayed,
    seq,
    set_trace_hook,
    then_tactic,
    thenl_tactic,
    try_tactic,
)
from refkit.theory import Context, Substitution

J = arith.STRUCTURE
K = StateStructure(J)
EMPTY = Context(())

NUM_EVAL = from_rule(arith.NUM_EVAL)
PLUS_EVAL = from_rule(arith.PLUS_EVAL)
ADD = from_rule(arith.ADD)


def eval_goal(expr):
    return arith.EvalGoal(EMPTY, expr)


def resolve(tac, goal, fuel=1000):
    return run_delayed(tac(goal.context, goal), fuel)


def final(tac, goal, fuel=1000):
    got = resolve(tac, goal, fuel)
    assert isinstance(got, Resolved)
    return got.value


def is_complete(state):
    return isinstance(state, Subgoals) and isinstance(state.telescope, TeleNil)


def test_run_delayed_counts_forces():
    assert run_delayed(Now(5), 0) == Resolved(5, 0)
    two = Later(lambda: Later(lambda: Now("x")))
    assert run_delayed(two, 5) == Resolved("x", 2)
    assert run_delayed(two, 1) == OutOfFuel(1)


def test_never_runs_out_of_any_fuel():
    assert run_delayed(NEVER, 25) == OutOfFuel(25)


def test_race_prefers_resolved_left_then_right():
    assert race(Now(1), Now(2)) == Now(1)
    assert race(Later(lambda: Now(1)), Now(2)) == Now(2)


def test_race_drops_never_branches():
    pending = Later(lambda: Now(3))
    assert race(NEVER, pending) is pending
    assert race(pending, NEVER) is pending


def test_race_advances_both_sides():
    slow = Later(lambda: Later(lambda: Now("slow")))
    fast = Later(lambda: Now("fast"))
    got = run_delayed(race(slow, fast), 5)
    assert got == Resolved("fast", 1)


def test_forcing_a_race_tower_is_iterative():
    m = NEVER
    for i in range(5000):
        m = Race(m, Later(lambda i=i: Now(i) if i == 0 else NEVER))
    got = force(m)  # must not blow the recursion limit
    assert got is not None


def test_bind_is_immediate_on_now():
    assert bind(Now(2), lambda v: Now(v + 1)) == Now(3)
    deferred = bind(Later(lambda: Now(2)), lambda v: Now(v + 1))
    assert isinstance(deferred, Later)
    assert run_delayed(deferred, 3) == Resolved(3, 1)


def test_lub_finds_the_first_resolving_approximant():
    got = run_delayed(lub(lambda n: Now(n) if n >= 2 else NEVER), 20)
    assert isinstance(got, Resolved)
    assert got.value == 2


def test_id_tactic_answers_with_the_unit_state():
    goal = eval_goal(arith.num(3))
    state = final(id_tactic(J), goal)
    assert state_alpha_eq(J, state, state_unit(J, goal))


def test_orelse_commits_to_a_subgoals_answer():
    def boom(ctx, goal):
        raise AssertionError("second branch must not run")

    state = final(orelse(NUM_EVAL, boom), eval_goal(arith.num(4)))
    assert is_complete(state)
    assert state.validation.terms == (arith.nat(0), arith.nat(4))


def test_orelse_falls_through_on_fail_and_on_bot():
    dead = lambda ctx, goal: Now(Fail(ctx, J.output(goal)))
    stuck = lambda ctx, goal: Now(Bot(ctx, J.output(goal)))
    goal = eval_goal(arith.num(1))
    unit = state_unit(J, goal)
    assert state_alpha_eq(J, final(orelse(dead, id_tactic(J)), goal), unit)
    assert state_alpha_eq(J, final(orelse(stuck, id_tactic(J)), goal), unit)


def test_try_tactic_turns_refusal_into_the_unit():
    goal = eval_goal(arith.plus(arith.num(1), arith.num(2)))
    state = final(try_tactic(J, NUM_EVAL), goal)
    assert state_alpha_eq(J, state, state_unit(J, goal))


def test_st_apply_rewrites_goals_in_place_without_threading():
    split = final(PLUS_EVAL, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    mt = all_mt(J, NUM_EVAL)
    got = run_delayed(mt(split.context, split), 1000)
    assert isinstance(got, Resolved)
    ss = got.value
    assert isinstance(ss, Subgoals)
    assert ss.validation == split.validation
    shapes = [
        "done" if is_complete(s) else type(s).__name__
        for _, s in tele_goals(ss.telescope)
    ]
    # the two evals resolve; the adds still mention binder variables,
    # which the in-place pass does not instantiate, so they refuse
    assert shapes == ["done", "done", "Fail", "Fail", "Fail"]


def test_then_collapses_when_the_second_tactic_refuses_a_branch():
    tac = then_tactic(J, PLUS_EVAL, NUM_EVAL)
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert isinstance(got, Fail)


def test_thenl_threads_resolved_evidence_into_later_goals():
    tac = thenl_tactic(J, PLUS_EVAL, (NUM_EVAL, NUM_EVAL, ADD, ADD, ADD))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert is_complete(got)
    assert got.validation.terms == (arith.nat(1), arith.nat(5))


def test_thenl_leaves_unlisted_goals_open():
    tac = thenl_tactic(J, PLUS_EVAL, (NUM_EVAL,))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert isinstance(got, Subgoals)
    assert len(tele_goals(got.telescope)) == 4


def test_each_substitutes_before_handing_over_the_goal():
    seen = []
    set_trace_hook(lambda goal, state: seen.append(J.render(goal)))
    try:
        tac = thenl_tactic(J, PLUS_EVAL, (NUM_EVAL, NUM_EVAL, ADD, ADD, ADD))
        final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    finally:
        set_trace_hook(None)
    assert "add 0 0" in seen
    assert "add 2 3" in seen


def test_never_tactic_makes_no_progress():
    got = resolve(never_tactic, eval_goal(arith.num(1)), fuel=40)
    assert got == OutOfFuel(40)


def test_repeat_resolves_an_immediately_closed_goal():
    got = final(repeat(J, NUM_EVAL), eval_goal(arith.num(1)))
    assert is_complete(got)
    assert got.validation.terms == (arith.nat(0), arith.nat(1))


def test_repeat_leaves_dependent_residue_behind():
    got = final(repeat(J, orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))),
                eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert isinstance(got, Subgoals)
    rendered = [J.render(g) for _, g in tele_goals(got.telescope)]
    assert rendered == ["add 0 0", "add 1 n", "add 2 3"]


def test_fix_diverges_when_no_approximant_answers():
    looping = fix(lambda rec: orelse(NUM_EVAL, rec))
    goal = eval_goal(arith.plus(arith.num(1), arith.num(2)))
    got = resolve(looping, goal, fuel=200)
    assert isinstance(got, OutOfFuel)
    closed = resolve(looping, eval_goal(arith.num(2)), fuel=200)
    assert isinstance(closed, Resolved)


def test_repeat_multitactic_passes_terminal_states_through():
    mt = repeat_multitactic(J, all_mt(J, NUM_EVAL))
    dead = Fail(EMPTY, arith.EVAL_OUTPUT)
    got = run_delayed(mt(EMPTY, dead), 10)
    assert isinstance(got, Resolved)
    assert state_alpha_eq(K, got.value, state_unit(K, dead))


def test_repeat_multitactic_stops_at_a_quiescent_state():
    goal = eval_goal(arith.plus(arith.num(2), arith.num(3)))
    start = state_unit(J, goal)
    mt = repeat_multitactic(J, all_mt(J, NUM_EVAL))
    got = run_delayed(mt(EMPTY, start), 100)
    assert isinstance(got, Resolved)
    [(_, settled)] = tele_goals(got.value.telescope)
    assert state_alpha_eq(J, settled, start)


def test_repeat_multitactic_runs_rounds_until_closed():
    goal = eval_goal(arith.plus(arith.num(2), arith.num(3)))
    start = state_unit(J, goal)
    aux = orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))
    mt = repeat_multitactic(J, all_mt(J, aux))
    got = run_delayed(mt(EMPTY, start), 1000)
    assert isinstance(got, Resolved)
    [(_, settled)] = tele_goals(got.value.telescope)
    assert is_complete(settled)
    assert settled.validation.terms == (arith.nat(1), arith.nat(5))


def test_seq_flattens_the_two_layers():
    aux = orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))
    tac = seq(J, id_tactic(J), repeat_multitactic(J, all_mt(J, aux)))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert is_complete(got)
    assert got.validation.terms == (arith.nat(1), arith.nat(5))


def test_trace_hook_fires_once_per_subgoal_answer():
    fired = []
    set_trace_hook(lambda goal, state: fired.append((goal, state)))
    try:
        split = final(PLUS_EVAL, eval_goal(arith.plus(arith.num(2), arith.num(3))))
        run_delayed(all_mt(J, NUM_EVAL)(split.context, split), 1000)
    finally:
        set_trace_hook(None)
    assert len(fired) == 5
    goals = [J.render(g) for g, _ in fired]
    assert goals[0].startswith("eval")
