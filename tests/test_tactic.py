"""Delayed computations, tacticals, and repetition."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit.cli import RunConfig, execute
from refkit.logics import arith
from refkit.state import (
    Bot,
    Fail,
    StateStructure,
    Subgoals,
    TeleCons,
    TeleNil,
    pretty_state,
    state_alpha_eq,
    state_mul,
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
    try_tactic,
)
from refkit.theory import Context, Substitution, render_term

from strategies import arith_state, rand_context, rand_num_term

J = arith.STRUCTURE
K = StateStructure(J)
EMPTY = Context(())

NUM_EVAL = from_rule(arith.NUM_EVAL)
PLUS_EVAL = from_rule(arith.PLUS_EVAL)
ADD = from_rule(arith.ADD)

FOUR_LEAVES = "eval num 1 + num 2 + (num 3 + num 4)"


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
    # a dead approximant is NEVER under a bind, and leaves the race too
    dead = bind(NEVER, lambda v: Now(v))
    assert race(dead, pending) is pending
    assert race(pending, dead) is pending


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


def test_bind_on_never_is_never_and_never_calls_the_continuation():
    def continuation(value):
        raise AssertionError("bind(NEVER, f) must not call f")

    assert bind(NEVER, continuation) is NEVER
    assert run_delayed(bind(NEVER, continuation), 30) == OutOfFuel(30)


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
    tac = seq(J, PLUS_EVAL, each_mt(J, (NUM_EVAL, NUM_EVAL, ADD, ADD, ADD)))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert is_complete(got)
    assert got.validation.terms == (arith.nat(1), arith.nat(5))


def test_thenl_leaves_unlisted_goals_open():
    tac = seq(J, PLUS_EVAL, each_mt(J, (NUM_EVAL,)))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert isinstance(got, Subgoals)
    assert len(tele_goals(got.telescope)) == 4


def test_each_substitutes_before_handing_over_the_goal():
    seen = []
    set_trace_hook(lambda goal, state: seen.append(J.render(goal)))
    try:
        tac = seq(J, PLUS_EVAL, each_mt(J, (NUM_EVAL, NUM_EVAL, ADD, ADD, ADD)))
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


# the reference semantics of one round of repeat_multitactic: rebuild
# refused entries as unit states, flatten, compare with the state before
def _recover_entries(structure, before, after):
    if not isinstance(after, Subgoals):
        return after
    orig = tele_goals(before.telescope)
    res = tele_goals(after.telescope)
    if len(orig) != len(res):
        return after
    if any(na != nb for (na, _), (nb, _) in zip(orig, res)):
        return after
    rebuilt = []
    for (_, goal), (names, answer) in zip(orig, res):
        if isinstance(answer, (Fail, Bot)):
            answer = state_unit(structure, goal)
        rebuilt.append((names, answer))
    return Subgoals(telescope(rebuilt, after), after.validation)


def telescope(entries, like):
    """The telescope of entries, closed by the flat context of state like."""
    tele = like.telescope
    while isinstance(tele, TeleCons):
        tele = tele.rest
    for names, goal in reversed(entries):
        tele = TeleCons(names, goal, tele)
    return tele


def reference_round(structure, state, answers):
    if isinstance(answers, (Fail, Bot)):
        return state, True
    advanced = state_mul(structure, _recover_entries(structure, state, answers))
    if isinstance(advanced, (Fail, Bot)):
        return state, True
    return advanced, state_alpha_eq(structure, advanced, state)


def one_round(structure, state, answers):
    """The state after repeat_multitactic's first round on the given
    answers, and whether it stopped there."""

    def mt(ctx, current):
        if current is state:
            return Now(answers)
        return Now(Fail(current.context, current.target))

    got = run_delayed(repeat_multitactic(structure, mt)(state.context, state), 1)
    assert isinstance(got, Resolved)
    [(_, settled)] = tele_goals(got.value.telescope)
    return settled, got.steps == 0


def rand_answer(rng, goal):
    roll = rng.randrange(7)
    output = J.output(goal)
    if roll == 0:
        return Fail(goal.context, output)
    if roll == 1:
        return Bot(goal.context, output)
    if roll == 2:
        return state_unit(J, goal)
    if roll == 3:
        # the goal itself, but its outputs are not handed straight back
        unit = state_unit(J, goal)
        flat = unit.validation.source
        terms = tuple(rand_num_term(rng, flat) for _ in output.entries)
        return Subgoals(unit.telescope, Substitution(flat, output, terms))
    if roll == 4:
        rule = rng.choice((arith.NUM_EVAL, arith.PLUS_EVAL, arith.ADD))
        return rule.run(goal.context, goal)
    inner = arith_state(rng, goal.context, max_goals=3, terminal_chance=0.0)
    flat = inner.validation.source
    terms = tuple(rand_num_term(rng, flat) for _ in output.entries)
    return Subgoals(inner.telescope, Substitution(flat, output, terms))


def rand_answers(rng, state):
    roll = rng.random()
    refusal = rng.choice((Fail, Bot))(state.context, state.target)
    if roll < 0.05:
        return refusal
    if roll < 0.1:
        return state_unit(K, state)
    if roll < 0.15:
        # one refused entry under binders of its own: nothing to heal
        return state_unit(K, refusal)
    entries = [
        (names, rand_answer(rng, goal)) for names, goal in tele_goals(state.telescope)
    ]
    validation = state.validation
    if rng.random() < 0.1:
        flat = validation.source
        validation = Substitution(
            flat,
            validation.target,
            tuple(rand_num_term(rng, flat) for _ in validation.target.entries),
        )
    return Subgoals(telescope(entries, state), validation)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_round_matches_the_heal_flatten_compare_reference(seed):
    rng = random.Random(seed)
    state = arith_state(
        rng, rand_context(rng), max_goals=4, terminal_chance=0.0
    )
    answers = rand_answers(rng, state)
    want, want_stop = reference_round(J, state, answers)
    got, got_stop = one_round(J, state, answers)
    assert pretty_state(J, got) == pretty_state(J, want)
    assert got == want
    assert got_stop == want_stop


def test_a_round_of_refusals_and_units_stops_as_the_reference_does():
    goal = eval_goal(arith.plus(arith.num(2), arith.plus(arith.num(3), arith.num(4))))
    split = final(PLUS_EVAL, goal)
    entries = [
        (names, state_unit(J, g) if i % 2 else Bot(g.context, J.output(g)))
        for i, (names, g) in enumerate(tele_goals(split.telescope))
    ]
    answers = Subgoals(telescope(entries, split), split.validation)
    want, want_stop = reference_round(J, split, answers)
    assert want_stop
    settled, stopped = one_round(J, split, answers)
    assert stopped
    assert settled == want


def test_id_star_stops_before_the_first_step():
    out = execute(RunConfig("arith", FOUR_LEAVES, "id; all(id)*"))
    assert out.status == "incomplete"
    assert out.steps == 0
    [(_, goal)] = tele_goals(out.state.telescope)
    assert J.render(goal) == FOUR_LEAVES


def test_plus_eval_star_leaves_a_byte_exact_residual():
    out = execute(RunConfig("arith", FOUR_LEAVES, "id; all(plus_eval)*"))
    assert out.status == "incomplete"
    assert out.steps == 2
    assert pretty_state(J, out.state) == (
        "[c, v] : eval num 1.\n"
        "[c'1, v'1] : eval num 2.\n"
        "n : add c c'1.\n"
        "n'1 : add 1 n.\n"
        "n'2 : add v v'1.\n"
        "[c'2, v'2] : eval num 3.\n"
        "[c'3, v'3] : eval num 4.\n"
        "n'3 : add c'2 c'3.\n"
        "n'4 : add 1 n'3.\n"
        "n'5 : add v'2 v'3.\n"
        "n'6 : add n'1 n'4.\n"
        "n'7 : add 1 n'6.\n"
        "n'8 : add n'2 n'5.\n"
        "▹ [n'7, n'8]"
    )


def balanced_sum(depth):
    if depth == 0:
        return "num 1"
    half = balanced_sum(depth - 1)
    return f"({half}) + ({half})"


def test_breadth_first_auto_closes_a_balanced_tree_of_255_additions():
    out = execute(RunConfig("arith", f"eval {balanced_sum(8)}", arith.AUTO_SCRIPT))
    assert out.status == "complete"
    assert out.steps == 25
    assert [render_term(t) for t in out.state.validation.terms] == ["255", "256"]
