"""Delayed computations, tacticals, and repetition."""

import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refkit import tactic
from refkit.cli import RunConfig, _trace_tag, execute, main
from refkit.logics import arith, dep
from refkit.rule import Rule, clause_rule
from refkit.script import compile_text
from refkit.state import (
    Bot,
    Fail,
    StateStructure,
    Subgoals,
    TeleBuilder,
    TeleCons,
    TeleNil,
    pretty_state,
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
    try_tactic,
)
from refkit.theory import (
    App,
    Context,
    ContextMismatch,
    Substitution,
    TheoryError,
    Var,
    render_term,
)

from reference import full_sweep_repeat, ref_round
from strategies import (
    arith_state,
    rand_context,
    rand_dep_context,
    rand_dep_exp,
    rand_dep_prop,
    rand_expr,
    rand_num_term,
)

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


def test_all_mt_rewrites_goals_in_place_without_threading():
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


def test_each_mt_threads_resolved_evidence_into_later_goals():
    tac = seq(J, PLUS_EVAL, each_mt(J, (NUM_EVAL, NUM_EVAL, ADD, ADD, ADD)))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert is_complete(got)
    assert got.validation.terms == (arith.nat(1), arith.nat(5))


def test_each_mt_leaves_unlisted_goals_open():
    tac = seq(J, PLUS_EVAL, each_mt(J, (NUM_EVAL,)))
    got = final(tac, eval_goal(arith.plus(arith.num(2), arith.num(3))))
    assert isinstance(got, Subgoals)
    assert len(tele_goals(got.telescope)) == 4


def test_each_substitutes_before_handing_over_the_goal():
    seen = []
    set_trace_hook(lambda goal, kind, goals: seen.append(J.render(goal)))
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
    set_trace_hook(lambda goal, kind, goals: fired.append((goal, (kind, goals))))
    try:
        split = final(PLUS_EVAL, eval_goal(arith.plus(arith.num(2), arith.num(3))))
        run_delayed(all_mt(J, NUM_EVAL)(split.context, split), 1000)
    finally:
        set_trace_hook(None)
    assert len(fired) == 5
    goals = [J.render(g) for g, _ in fired]
    assert goals[0].startswith("eval")


# one round of repeat_multitactic, and the rounds of a whole run, against
# the naive kernel in tests/reference.py: heal, flatten, compare


def telescope(entries, like):
    """The telescope of entries, closed by the flat context of state like."""
    tele = like.telescope
    while isinstance(tele, TeleCons):
        tele = tele.rest
    for names, goal in reversed(entries):
        tele = TeleCons(names, goal, tele)
    return tele


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
    want, want_stop = ref_round(state, answers)
    got, got_stop = one_round(J, state, answers)
    assert pretty_state(J, got) == pretty_state(J, want)
    assert got == want
    assert got_stop == want_stop


def rand_natural(rng, depth, leaves=(NUM_EVAL, PLUS_EVAL, ADD, ADD, id_tactic(J))):
    """A tactic built from rules, id and `|`."""
    if depth <= 0 or rng.random() < 0.4:
        return rng.choice(leaves)
    return orelse(
        rand_natural(rng, depth - 1, leaves), rand_natural(rng, depth - 1, leaves)
    )


def rand_round_tactic(rng):
    """A tactic for all(...)*: natural ones, and ones with a star or a
    `;` inside, which take the full re-sweep.  A starred body has no id,
    which would make the star diverge.  The last kind may refuse a goal
    only after some steps, so keeping its refusal would save fuel."""
    rules = (NUM_EVAL, PLUS_EVAL, ADD)
    roll = rng.random()
    if roll < 0.3:
        # the auto step, in some order
        first, second, third = rng.sample(rules, 3)
        return orelse(first, orelse(second, third))
    if roll < 0.7:
        return rand_natural(rng, 3)
    if roll < 0.8:
        return repeat(J, rand_natural(rng, 2, rules))
    if roll < 0.9:
        return then_tactic(J, rand_natural(rng, 1), rand_natural(rng, 2))
    if roll < 0.95:
        return orelse(rand_natural(rng, 1), repeat(J, rand_natural(rng, 1, rules)))
    starred = repeat(J, rand_natural(rng, 1, rules))
    return orelse(rand_natural(rng, 1), then_tactic(J, starred, rand_natural(rng, 1)))


def traced_run(mt, state, fuel):
    fired = []
    set_trace_hook(lambda goal, kind, goals: fired.append((goal, _trace_tag(kind, goals))))
    try:
        got = run_delayed(mt(state.context, state), fuel)
    finally:
        set_trace_hook(None)
    return got, fired


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_rounds_match_the_full_re_sweep(seed):
    rng = random.Random(seed)
    ctx = rand_context(rng)
    if rng.random() < 0.5:
        state = arith_state(rng, ctx, max_goals=4, depth=3)
    else:
        # one sum to take apart: many rounds, most goals refused
        state = state_unit(J, arith.EvalGoal(ctx, rand_expr(rng, ctx, 4)))
    t = rand_round_tactic(rng)
    got, got_trace = traced_run(repeat_multitactic(J, all_mt(J, t)), state, 300)
    want, want_trace = traced_run(full_sweep_repeat(all_mt(J, t)), state, 300)
    assert type(got) is type(want)
    assert got.steps == want.steps
    assert got_trace == want_trace
    if isinstance(want, Resolved):
        assert got.value == want.value
        assert pretty_state(K, got.value) == pretty_state(K, want.value)
        [(_, settled)] = tele_goals(got.value.telescope)
        [(_, reference)] = tele_goals(want.value.telescope)
        if isinstance(reference, Subgoals):
            assert [names for names, _ in tele_goals(settled.telescope)] == [
                names for names, _ in tele_goals(reference.telescope)
            ]
            assert pretty_state(J, settled) == pretty_state(J, reference)


def rand_left_comb(rng, ctx):
    """eval of a left comb of 6 to 12 `+` over numerals: each round's
    answers sit in front of a long run of standing add goals."""
    expr = arith.num(rng.randrange(4))
    for _ in range(rng.randint(6, 12)):
        expr = arith.plus(expr, arith.num(rng.randrange(4)))
    return arith.EvalGoal(ctx, expr)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_untraced_rounds_match_the_traced_full_re_sweep(seed):
    # with no trace hook the rounds need no goal named until the end
    rng = random.Random(seed)
    ctx = rand_context(rng)
    roll = rng.random()
    if roll < 0.4:
        state = arith_state(rng, ctx, max_goals=4, depth=3)
    elif roll < 0.8:
        state = state_unit(J, arith.EvalGoal(ctx, rand_expr(rng, ctx, 4)))
    else:
        state = state_unit(J, rand_left_comb(rng, ctx))
    t = rand_round_tactic(rng)
    got = run_delayed(repeat_multitactic(J, all_mt(J, t))(state.context, state), 300)
    want, _ = traced_run(full_sweep_repeat(all_mt(J, t)), state, 300)
    assert type(got) is type(want)
    assert got.steps == want.steps
    if isinstance(want, Resolved):
        assert got.value == want.value
        assert pretty_state(K, got.value) == pretty_state(K, want.value)


def test_a_round_of_refusals_and_units_stops_as_the_reference_does():
    goal = eval_goal(arith.plus(arith.num(2), arith.plus(arith.num(3), arith.num(4))))
    split = final(PLUS_EVAL, goal)
    entries = [
        (names, state_unit(J, g) if i % 2 else Bot(g.context, J.output(g)))
        for i, (names, g) in enumerate(tele_goals(split.telescope))
    ]
    answers = Subgoals(telescope(entries, split), split.validation)
    want, want_stop = ref_round(split, answers)
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


def pick_applies(ctx, g):
    prop = g.prop
    return (
        isinstance(prop, App)
        and prop.op == dep.EQ_OP
        and isinstance(prop.args[0], Var)
        and prop.args[1] == dep.tt()
    )


def pick_build(ctx, g):
    evidence = (g.prop.args[0],)
    return Subgoals(TeleNil(ctx), Substitution(ctx, dep.TRUTH_OUTPUT, evidence))


# answers `true eq(v, tt)` with the variable v itself
pick = clause_rule(dep.STRUCTURE, "pick", ((pick_applies, pick_build),))


def test_a_goal_whose_variables_the_flattening_merged_is_attacked_again():
    # pick answers b = `true eq(a, tt)` with a, so b's output becomes a:
    # c = eq(a, b) is refused in the first round and moves to eq(a', a'),
    # which eq_refl proves; a, a renamed variable goal, keeps its refusal
    D = dep.STRUCTURE
    b = TeleBuilder(D, Context((("p", dep.PROP),)))
    (a,) = b.push(dep.TruthGoal(b.prefix, Var("p", dep.PROP)), ("a",))
    (bb,) = b.push(dep.TruthGoal(b.prefix, dep.eq(a, dep.tt())), ("b",))
    (c,) = b.push(dep.TruthGoal(b.prefix, dep.eq(a, bb)), ("c",))
    state = b.close(Substitution(b.prefix, dep.TRUTH_OUTPUT, (c,)))
    t = orelse(from_rule(dep.EQ_REFL), from_rule(pick))
    got, got_trace = traced_run(repeat_multitactic(D, all_mt(D, t)), state, 50)
    want, want_trace = traced_run(full_sweep_repeat(all_mt(D, t)), state, 50)
    assert got == want
    assert got_trace == want_trace
    [(_, settled)] = tele_goals(got.value.telescope)
    assert [D.render(g) for _, g in tele_goals(settled.telescope)] == ["true p"]
    assert [render_term(t) for t in settled.validation.terms] == ["refl"]


def test_an_output_using_an_atom_answered_in_the_same_round_is_put_in_first():
    # in the first round top_i proves a, and pick answers b = eq(a, tt)
    # with a and c = eq(b, tt) with b, so c's output is tt
    D = dep.STRUCTURE
    b = TeleBuilder(D, EMPTY)
    (a,) = b.push(dep.TruthGoal(b.prefix, dep.top()), ("a",))
    (bb,) = b.push(dep.TruthGoal(b.prefix, dep.eq(a, dep.tt())), ("b",))
    (c,) = b.push(dep.TruthGoal(b.prefix, dep.eq(bb, dep.tt())), ("c",))
    state = b.close(Substitution(b.prefix, dep.TRUTH_OUTPUT, (c,)))
    t = orelse(from_rule(dep.TOP_I), orelse(from_rule(dep.EQ_REFL), from_rule(pick)))
    mt = repeat_multitactic(D, all_mt(D, t))
    got = run_delayed(mt(state.context, state), 50)
    want, _ = traced_run(full_sweep_repeat(all_mt(D, t)), state, 50)
    assert got == want
    [(_, settled)] = tele_goals(got.value.telescope)
    assert [render_term(t) for t in settled.validation.terms] == ["tt"]


DEP_LEAVES = (
    from_rule(dep.TOP_I),
    from_rule(dep.OR_I1),
    from_rule(dep.EQ_REFL),
    from_rule(dep.SIG_I),
    from_rule(pick),
    id_tactic(dep.STRUCTURE),
)


def rand_dep_state(rng, ctx):
    """One to three dep goals, each over the outputs of those before it,
    with evidence over all of them."""
    b = TeleBuilder(dep.STRUCTURE, ctx)
    for _ in range(rng.randint(1, 3)):
        b.push(dep.TruthGoal(b.prefix, rand_dep_prop(rng, b.prefix, 4)), ("g",))
    evidence = rand_dep_exp(rng, b.prefix, 2)
    return b.close(Substitution(b.prefix, dep.TRUTH_OUTPUT, (evidence,)))


def rand_dep_tactic(rng):
    """The auto step with pick, in some order, or a natural tactic."""
    if rng.random() < 0.5:
        return rand_natural(rng, 3, DEP_LEAVES)
    first, *rest = rng.sample(DEP_LEAVES[:-1], len(DEP_LEAVES) - 1)
    for leaf in rest:
        first = orelse(first, leaf)
    return first


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_dep_rounds_match_the_full_re_sweep(seed):
    # sig_i's second goal uses the first's output, pick answers with a
    # variable and a goal may use an earlier goal's output, so atoms are
    # bound to terms over atoms bound in later rounds
    D = dep.STRUCTURE
    rng = random.Random(seed)
    state = rand_dep_state(rng, rand_dep_context(rng))
    t = rand_dep_tactic(rng)
    got, got_trace = traced_run(repeat_multitactic(D, all_mt(D, t)), state, 300)
    want, want_trace = traced_run(full_sweep_repeat(all_mt(D, t)), state, 300)
    assert type(got) is type(want)
    assert got.steps == want.steps
    assert got_trace == want_trace
    if isinstance(want, Resolved):
        assert got.value == want.value
        KD = StateStructure(D)
        assert pretty_state(KD, got.value) == pretty_state(KD, want.value)


def stall_build(ctx, g):
    # the goal again, but with 0 for its output, not its new binder
    unit = state_unit(J, g)
    zero = Substitution(unit.validation.source, arith.ADD_OUTPUT, (arith.nat(0),))
    return Subgoals(unit.telescope, zero)


def swap_build(ctx, g):
    b = TeleBuilder(J, ctx)
    (n,) = b.push(arith.AddGoal(b.prefix, g.rhs, g.lhs), ("n",))
    return b.close(Substitution(b.prefix, arith.ADD_OUTPUT, (n,)))


@pytest.mark.parametrize(
    "build", [stall_build, swap_build], ids=["new outputs", "new goal"]
)
def test_a_round_that_keeps_the_number_of_goals_compares_them(build):
    # stall changes only the validation, and stops after one more round;
    # swap changes only the goal, and never stops
    probe = clause_rule(J, "probe", ((lambda ctx, g: isinstance(g, arith.AddGoal), build),))
    ctx = Context((("x", arith.NUM),))
    state = state_unit(J, arith.AddGoal(ctx, Var("x", arith.NUM), arith.nat(1)))
    t = from_rule(probe)
    got = run_delayed(repeat_multitactic(J, all_mt(J, t))(ctx, state), 20)
    want, _ = traced_run(full_sweep_repeat(all_mt(J, t)), state, 20)
    assert type(got) is type(want)
    assert got.steps == want.steps
    if isinstance(want, Resolved):
        assert got.value == want.value

def counted_rules(monkeypatch):
    calls = [0]

    def counted(rule):
        def run(ctx, goal):
            calls[0] += 1
            return rule.run(ctx, goal)

        return Rule(rule.name, run)

    table = {name: counted(rule) for name, rule in arith.RULES.items()}
    monkeypatch.setattr(arith, "RULES", table)
    return calls


def left_comb(pluses):
    return "eval " + " + ".join(["num 1"] * (pluses + 1))


def wide_each(pluses):
    """A left comb of pluses `+` as goal text, and a script that evaluates
    its leaves breadth-first and then answers the add goals left, one
    tactic per entry, each seeing the evidence of the entries before it."""
    adds = ", ".join(["num_eval | plus_eval | add"] * (6 * pluses))
    return left_comb(pluses), f"(id; all(num_eval | plus_eval)*); [{adds}]"


def test_a_positional_sweep_does_work_linear_in_its_entries(monkeypatch):
    # each entry's goal is moved through one image of the names in scope;
    # a checked substitution over each entry's whole context checked 7,432
    # and 29,252 terms here
    checked, post_init = [0], Substitution.__post_init__

    def counted(self):
        checked[0] += len(self.terms)
        post_init(self)

    monkeypatch.setattr(Substitution, "__post_init__", counted)
    counts = []
    for pluses in (40, 80):
        checked[0] = 0
        out = execute(RunConfig("arith", *wide_each(pluses)))
        assert out.status == "complete"
        assert out.steps == pluses + 1
        counts.append(checked[0])
    assert counts[1] <= 2.5 * counts[0]


def dep_nest(levels, ors):
    """A nest of levels levels over `top` as goal text, the levels in ors
    `or(A, top)`, the others `sig(x. eq(x, W), A)` with A the level below
    and W its witness, and the positional script that proves it: every
    entry of every `[...]` is discharged."""
    prop, witness, script = "top", "tt", "top_i"
    for level in range(levels):
        if level in ors:
            prop, witness = f"or({prop}, top)", f"inl({witness})"
            script = f"or_i1; [{script}]"
        else:
            prop, witness = f"sig(x. eq(x, {witness}), {prop})", f"pair({witness}, refl)"
            script = f"sig_i; [{script}, eq_refl]"
    return "true " + prop, script


# (logic, goal, script, state_mul calls per run): a sweep that discharges
# every entry hands back the flat state itself, one that leaves an entry
# standing or refused has its state of states flattened
POSITIONAL_RUNS = [
    ("dep", *dep_nest(40, range(1, 40, 3)), 0),
    ("arith", "eval num 1 + num 2", "plus_eval; [num_eval, num_eval, add, add, add]", 0),
    ("dep", "true sig(x. eq(x, tt), top)", "sig_i; [top_i, id]", 1),
    ("dep", "true sig(x. eq(x, tt), top)", "sig_i; [id, eq_refl]", 1),
]

# one sha256 over the exit code, stdout and stderr of each run above in
# the three output modes, pinned from a run of the code that flattened
# every sweep's state of states with state_mul
POSITIONAL_DIGEST = (
    "9f198332139e58773090457bda13907b969d9a517473167cff0f61727196ba9f"
)


def test_a_sweep_that_discharges_every_entry_is_not_flattened_again(monkeypatch, capsys):
    calls, real = [], tactic.state_mul

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(tactic, "state_mul", counted)
    digest = hashlib.sha256()
    for logic, goal, script, flattenings in POSITIONAL_RUNS:
        for mode in ((), ("--json",), ("--trace",)):
            calls.clear()
            code = main(["--logic", logic, "--goal", goal, "--script", script, *mode])
            captured = capsys.readouterr()
            assert len(calls) == flattenings, script
            for part in (str(code), captured.out, captured.err):
                digest.update(part.encode() + b"\0")
    assert digest.hexdigest() == POSITIONAL_DIGEST


@pytest.mark.parametrize(
    "goal, steps, rule_calls",
    [
        (left_comb(32), 97, 165),
        (f"eval {balanced_sum(5)}", 16, 158),
    ],
    ids=["left comb of 32", "balanced tree of depth 5"],
)
def test_breadth_first_auto_attacks_only_goals_that_may_answer(
    monkeypatch, goal, steps, rule_calls
):
    # a goal refused and only renamed since keeps its refusal, a goal of
    # a shape refused before is refused without a rule call, and so is a
    # goal whose head a rule's entry in arith.HEADS excludes: a full
    # re-sweep makes 12,673 and 1,369 rule calls on these goals, the
    # rounds without the table of refused shapes 859 and 652, and the
    # rounds without the index by goal head 397 and 379
    calls = counted_rules(monkeypatch)
    out = execute(RunConfig("arith", goal, arith.AUTO_SCRIPT))
    assert out.status == "complete"
    assert out.steps == steps
    assert calls[0] == rule_calls


def test_breadth_first_rounds_do_work_linear_in_the_comb(monkeypatch):
    # a round moves only the goals that answered and those that use their
    # outputs, so doubling the comb about doubles the goals moved; a round
    # that moved every standing goal made 16,704 and 66,176 moves here
    calls, subst = [0], type(J).subst

    def counted(self, judgment, s):
        calls[0] += 1
        return subst(self, judgment, s)

    monkeypatch.setattr(type(J), "subst", counted)
    counts = []
    for pluses in (64, 128):
        calls[0] = 0
        out = execute(RunConfig("arith", left_comb(pluses), arith.AUTO_SCRIPT))
        assert out.status == "complete"
        counts.append(calls[0])
    assert counts[1] < 2.5 * counts[0]


def test_a_breadth_first_run_resumes_once_from_each_round():
    # a round changes the run's telescope in place
    goal = eval_goal(arith.plus(arith.num(2), arith.num(3)))
    state = state_unit(J, goal)
    mt = repeat_multitactic(J, all_mt(J, orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))))
    first = mt(state.context, state)
    assert isinstance(first, Later)
    force(first)
    with pytest.raises(RuntimeError, match="resumed twice"):
        force(first)


def test_natural_follows_how_the_tactic_was_built():
    plain = lambda ctx, goal: NUM_EVAL(ctx, goal)  # noqa: E731
    natural = (
        NUM_EVAL,
        id_tactic(J),
        orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD)),
        try_tactic(J, orelse(ADD, NUM_EVAL)),
    )
    assert all(t.natural for t in natural)
    others = (
        then_tactic(J, NUM_EVAL, ADD),
        repeat(J, NUM_EVAL),
        seq(J, id_tactic(J), all_mt(J, NUM_EVAL)),
    )
    assert not any(t.natural for t in others)
    for other in (*others, plain):
        assert not orelse(NUM_EVAL, other).natural
        assert not orelse(other, id_tactic(J)).natural


@pytest.mark.parametrize(
    "wrap, heads, rule_calls",
    [
        (lambda step: step, arith.HEADS, 165),
        (lambda step: lambda ctx, g: step(ctx, g), {}, 12673),
    ],
    ids=["natural step", "step behind a plain callable"],
)
def test_the_auto_script_built_in_python_runs_as_compiled(
    monkeypatch, wrap, heads, rule_calls
):
    # a plain callable runs as a leaf that is not natural: the rounds
    # re-attack every goal, with the same states and steps.  The natural
    # step's rules carry their entries in arith.HEADS, as a compiled
    # script's do, so it makes the compiled script's rule calls (397
    # without the index by goal head, 859 before refused shapes were
    # tabled)
    calls = counted_rules(monkeypatch)

    def leaf(name):
        return from_rule(arith.RULES[name], J, heads.get(name))

    step = orelse(leaf("num_eval"), orelse(leaf("plus_eval"), leaf("add")))
    auto = seq(J, id_tactic(J), repeat_multitactic(J, all_mt(J, wrap(step))))
    goal = arith.parse_goal(left_comb(32))
    got = run_delayed(auto(goal.context, goal), 1000)
    assert isinstance(got, Resolved) and got.steps == 97
    assert is_complete(got.value)
    assert calls[0] == rule_calls


# the depth-first star: one pass, its bound one level deeper per step


def race_star(structure, t):
    """repeat(structure, t) as the race of its approximants."""
    return fix(lambda rec: try_tactic(structure, then_tactic(structure, t, rec)))


def rand_star_case(rng):
    """A natural tactic, possibly with id, which makes the star diverge,
    and a goal of its logic."""
    if rng.random() < 0.6:
        ctx = rand_context(rng)
        goal = arith.EvalGoal(ctx, rand_expr(rng, ctx, 4))
        return J, rand_natural(rng, 3), goal
    rules = tuple(from_rule(rule) for rule in dep.RULES.values())
    ctx = rand_dep_context(rng)
    goal = dep.TruthGoal(ctx, rand_dep_prop(rng, ctx, 4))
    return dep.STRUCTURE, rand_natural(rng, 3, (*rules, id_tactic(dep.STRUCTURE))), goal


STAR_FUEL = 12


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_depth_first_star_agrees_with_the_race(seed):
    structure, t, goal = rand_star_case(random.Random(seed))
    star, race = repeat(structure, t), race_star(structure, t)
    assert type(star) is not type(race)
    for fuel in range(STAR_FUEL + 1):
        got, want = resolve(star, goal, fuel), resolve(race, goal, fuel)
        assert type(got) is type(want)
        assert got.steps == want.steps
        if isinstance(want, Resolved):
            assert state_alpha_eq(structure, got.value, want.value)
            assert pretty_state(structure, got.value) == pretty_state(structure, want.value)
            assert got.value == want.value
        # traced_run reads a goal as it reads a state: by its context
        got_traced, got_trace = traced_run(star, goal, fuel)
        _, want_trace = traced_run(race, goal, fuel)
        assert got_traced == got
        assert got_trace == want_trace


def counted_twin(t, structure, heads, calls):
    """The natural tactic t rebuilt with each rule leaf counting its calls
    in calls and carrying its entry in heads, if heads has one."""
    if isinstance(t, tactic._OrElse):
        return orelse(
            counted_twin(t.first, structure, heads, calls),
            counted_twin(t.second, structure, heads, calls),
        )
    if isinstance(t, tactic._Rule):
        rule = t.rule

        def run(ctx, goal):
            calls[0] += 1
            return rule.run(ctx, goal)

        return from_rule(Rule(rule.name, run), structure, heads.get(rule.name))
    return t


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_the_index_by_goal_head_changes_nothing_but_rule_calls(seed):
    # a leaf whose entry excludes the goal answers the FAIL its rule
    # would: under a star, under all(...)* and bare, the runs agree in
    # outcome, steps, state and trace lines, with no more rule calls
    structure, t, goal = rand_star_case(random.Random(seed))
    heads = arith.HEADS if structure is J else dep.HEADS
    state = state_unit(structure, goal)
    runs = []
    for index in ({}, heads):
        calls = [0]
        u = counted_twin(t, structure, index, calls)
        cases = (
            (repeat(structure, u), goal),
            (repeat_multitactic(structure, all_mt(structure, u)), state),
            (u, goal),
        )
        outcomes = []
        for tac, x in cases:
            got, fired = traced_run(tac, x, STAR_FUEL)
            lines = [f"{structure.render(g)} => {tag}" for g, tag in fired]
            outcomes.append((got, lines))
        runs.append((outcomes, calls[0]))
    (plain, plain_calls), (indexed, indexed_calls) = runs
    for (got, got_lines), (want, want_lines) in zip(indexed, plain):
        assert type(got) is type(want)
        assert got.steps == want.steps
        if isinstance(want, Resolved):
            assert got.value == want.value
        assert got_lines == want_lines
    assert indexed_calls <= plain_calls


def test_a_tower_answers_in_linear_memory():
    # `|` nests to the left, so leaves kept per node would hold about
    # 4.5M references here; the tower's leaves are listed once, by the
    # node that answers
    def leaf(name):
        return from_rule(arith.RULES[name], J, arith.HEADS[name])

    goal = arith.parse_goal("add 1 2")
    tracemalloc.start()
    try:
        tower = leaf("num_eval")
        for k in range(1, 2999):
            tower = orelse(tower, leaf("plus_eval" if k % 2 else "num_eval"))
        tower = orelse(tower, leaf("add"))
        got = run_delayed(tower(goal.context, goal), 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == run_delayed(leaf("add")(goal.context, goal), 1)
    assert isinstance(got.value, Subgoals)
    assert peak < 4_000_000


def test_an_indexed_rule_leaf_needs_its_structure():
    # the FAIL it answers in the rule's place targets the goal's outputs
    with pytest.raises(TypeError, match="needs its structure"):
        from_rule(arith.ADD, None, arith.HEADS["add"])


@pytest.mark.parametrize(
    "pluses, rule_calls, trace",
    [(64, 131, False), (128, 259, False), (64, 131, True), (128, 259, True)],
    ids=["comb of 64", "comb of 128", "traced comb of 64", "traced comb of 128"],
)
def test_the_depth_first_star_does_work_linear_in_the_comb(
    monkeypatch, capsys, pluses, rule_calls, trace
):
    # each step resumes the pass at the goal where the last one stopped,
    # and a goal of a shape refused before, or of a head a rule's entry
    # excludes, costs that rule no call; raced from scratch, the
    # approximants made 4,929 and 18,049 calls, the pass without the
    # table of refused shapes 769 and 1,537, and the pass without the
    # index by goal head 199 and 391.  A traced step shows the pass's log
    # again and calls no rule for it.
    calls = counted_rules(monkeypatch)
    config = RunConfig("arith", left_comb(pluses), arith.AUTO_NAIVE_SCRIPT, trace=trace)
    out = execute(config)
    assert out.status == "incomplete"
    assert out.steps == pluses + 2
    assert calls[0] == rule_calls


def test_the_depth_first_star_builds_no_unit_state_for_a_refused_goal(monkeypatch):
    # a refused goal stands in the pass as it is; a pass that ran try's id
    # on each built 192 unit states on this comb and dropped them
    calls = [0]

    def counted(structure, goal):
        calls[0] += 1
        return state_unit(structure, goal)

    monkeypatch.setattr(tactic, "state_unit", counted)
    out = execute(RunConfig("arith", left_comb(64), arith.AUTO_NAIVE_SCRIPT))
    monkeypatch.undo()
    assert out.status == "incomplete"
    assert calls[0] <= 1


def test_a_breadth_first_round_builds_validations_only_when_its_goals_match(monkeypatch):
    # every round of a sig chain keeps the number of goals, and each
    # validation is the whole evidence spine; comparing whole states there
    # built 399 validations on this chain
    calls = [0]

    def counted(*fields):
        calls[0] += 1
        return Substitution(*fields)

    prop = "top"
    for _ in range(200):
        prop = f"sig(x. eq(x, x), {prop})"
    monkeypatch.setattr(tactic, "Substitution", counted)
    out = execute(RunConfig("dep", "true " + prop, dep.AUTO_SCRIPT))
    monkeypatch.undo()
    assert out.status == "complete"
    assert out.steps == 201
    assert calls[0] <= 1


def test_breadth_first_auto_does_work_linear_in_the_dep_chain(monkeypatch):
    # a round binds its answers' outputs and the validation puts them in
    # once, where the state is named; substituting them into the
    # validation every round built 157.5 and 457.5 terms per level here
    calls, post_init = [0], App.__post_init__

    def counted(self):
        calls[0] += 1
        post_init(self)

    per_level = []
    for levels in (300, 900):
        prop = "top"
        for _ in range(levels):
            prop = f"sig(x. eq(x, x), {prop})"
        goal = dep.parse_goal("true " + prop)
        calls[0] = 0
        monkeypatch.setattr(App, "__post_init__", counted)
        got = resolve(dep.auto(), goal, fuel=10 * levels)
        monkeypatch.undo()
        per_level.append(calls[0] / levels)
        assert got.steps == levels + 1
        assert isinstance(got.value, Subgoals)
        assert isinstance(got.value.telescope, TeleNil)
        [evidence] = got.value.validation.terms
        assert render_term(evidence) == render_term(dep.prove_oracle(goal.prop))
    assert max(per_level) < 1.1 * min(per_level)


def test_the_validation_puts_in_only_the_outputs_it_reaches(monkeypatch):
    # the values an add goal takes are put into goals, never into the
    # evidence; resolving every bound output read 1,408 calls here
    calls, apply = [0], tactic.subst_apply

    def counted(*args):
        calls[0] += 1
        return apply(*args)

    goal = arith.parse_goal(left_comb(100))
    monkeypatch.setattr(tactic, "subst_apply", counted)
    got = resolve(arith.auto(), goal)
    monkeypatch.undo()
    assert got.steps == 301
    assert is_complete(got.value)
    assert calls[0] == 710


@pytest.mark.parametrize("later", [False, True], ids=["at once", "after a step"])
def test_a_plain_tactic_answering_a_non_state_raises_where_it_answers(later):
    # the answer is checked as the machine takes it, before an or-else
    # falls back on it or a sweep attacks the next goal
    calls = [0]

    def plain(ctx, goal):
        calls[0] += 1
        return Later(lambda: Now(42)) if later else Now(42)

    goal = eval_goal(arith.plus(arith.num(1), arith.num(2)))
    tactics = (
        orelse(plain, id_tactic(J)),
        then_tactic(J, plain, id_tactic(J)),
        then_tactic(J, PLUS_EVAL, plain),
    )
    for t in tactics:
        calls[0] = 0
        with pytest.raises(TheoryError, match="subgoal is not a proof state: 42"):
            resolve(t, goal)
        assert calls[0] == 1


def test_a_plain_tactic_answering_a_state_not_a_delayed_raises_where_it_answers():
    goal = eval_goal(arith.num(1))
    t = orelse(lambda ctx, g: state_unit(J, g), id_tactic(J))
    with pytest.raises(TheoryError, match="^tactic answered Subgoals, not a Delayed$"):
        resolve(t, goal)


def answer_seven(ctx, goal):
    """A complete state with one output, whatever the goal's outputs."""
    return Subgoals(TeleNil(ctx), Substitution(ctx, arith.ADD_OUTPUT, (arith.nat(7),)))


@pytest.mark.parametrize(
    "script",
    [
        "plus_eval; all(w)",
        "plus_eval; [w, w, w, w, w]",
        "(plus_eval | w)*",
        "id; all(plus_eval | w)*",
        "id; all(w)*",
    ],
)
def test_an_answer_not_over_the_goals_outputs_raises_where_it_is_taken(script):
    # a sweep, a depth-first pass and a round each check the target of the
    # answers they take; unchecked, the flattening dropped the outputs the
    # answer lacked and the first four runs gave the extract [7, 7]
    rules = dict(arith.RULES, w=Rule("w", answer_seven))
    tac = compile_text(J, rules, script)
    with pytest.raises(ContextMismatch, match="^answer to 'eval num 1"):
        resolve(tac, arith.parse_goal("eval num 1 + num 2"))


@pytest.mark.parametrize("script", ["w", "w; all(id)", "w | id", "(w; all(id))*"])
def test_an_answer_to_the_runs_own_goal_not_over_its_outputs_raises(script):
    # the answer a run hands back is checked as the answers it takes are;
    # unchecked, each of these runs gave a complete state with extract [7]
    rules = dict(arith.RULES, w=Rule("w", answer_seven))
    tac = compile_text(J, rules, script)
    with pytest.raises(ContextMismatch, match="^answer to 'eval num 1 \\+ num 2' is not over"):
        resolve(tac, arith.parse_goal("eval num 1 + num 2"))


def test_a_depth_first_star_step_forced_twice_answers_alike():
    goal = eval_goal(arith.plus(arith.plus(arith.num(1), arith.num(2)), arith.num(3)))
    star = repeat(J, orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD)))
    m = star(EMPTY, goal)
    for _ in range(2):
        m = force(m)
    assert isinstance(m, Later)
    first, second = force(m), force(m)
    assert isinstance(first, Later) and isinstance(second, Later)
    got = run_delayed(first, 100)
    assert isinstance(got, Resolved)
    assert got == run_delayed(second, 100)
    assert got.value == final(race_star(J, orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))), goal)


@pytest.mark.parametrize("forces", range(1, 8))
def test_a_hook_installed_mid_star_is_shown_what_the_race_shows(forces):
    # each step of the race runs its approximant from scratch, so a hook
    # installed while the star runs is shown every answer before it again
    expr = arith.num(1)
    for _ in range(6):
        expr = arith.plus(arith.num(1), expr)
    goal = eval_goal(expr)
    t = orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))
    runs = []
    for tac in (repeat(J, t), race_star(J, t)):
        m = tac(EMPTY, goal)
        for _ in range(forces):
            m = force(m)
        fired = []
        set_trace_hook(lambda goal, kind, goals: fired.append((goal, _trace_tag(kind, goals))))
        try:
            got = run_delayed(m, 1000)
        finally:
            set_trace_hook(None)
        runs.append((got, fired))
    assert runs[0] == runs[1]


# refused shapes: a natural tactic refuses each goal shape once per run


def counted_step(calls):
    """The auto step, num_eval | plus_eval | add, counting its rule calls
    by name in calls."""

    def counted(rule):
        def run(ctx, goal):
            calls[rule.name] = calls.get(rule.name, 0) + 1
            return rule.run(ctx, goal)

        return from_rule(Rule(rule.name, run))

    return orelse(counted(arith.NUM_EVAL), orelse(counted(arith.PLUS_EVAL), counted(arith.ADD)))


def test_a_pass_refuses_two_goals_of_one_shape_with_one_attack():
    # plus_eval leaves `add xc yc`, `add 1 zc` and `add xv yv` over the
    # outputs of two evals; the first and the last differ only in their
    # variables, so the pass attacks them once: untabled, each of the three
    # add goals cost a num_eval, a plus_eval and an add call
    calls = {}
    goal = arith.parse_goal(left_comb(1))
    got = final(repeat(J, counted_step(calls)), goal)
    want = final(race_star(J, orelse(NUM_EVAL, orelse(PLUS_EVAL, ADD))), goal)
    assert got == want
    assert len(tele_goals(got.telescope)) == 3
    assert calls == {"num_eval": 5, "plus_eval": 3, "add": 2}


def add_twice_applies(ctx, g):
    return isinstance(g, arith.AddGoal) and g.lhs == g.rhs and isinstance(g.lhs, Var)


def add_twice_build(ctx, g):
    return Subgoals(TeleNil(ctx), Substitution(ctx, arith.ADD_OUTPUT, (g.lhs,)))


# answers `add v v`, for a variable v, with v itself
add_twice = clause_rule(J, "add_twice", ((add_twice_applies, add_twice_build),))


def test_a_variable_twice_and_two_variables_are_two_shapes():
    x, y = Var("x", arith.NUM), Var("y", arith.NUM)
    ctx = Context((("x", arith.NUM), ("y", arith.NUM)))
    b = TeleBuilder(J, ctx)
    b.push(arith.AddGoal(b.prefix, x, y), ("n",))
    b.push(arith.AddGoal(b.prefix, y, y), ("n",))
    state = b.close(Substitution(b.prefix, EMPTY, ()))
    calls = [0]

    def counted(ctx, g):
        calls[0] += 1
        return add_twice.run(ctx, g)

    t = from_rule(Rule("add_twice", counted))
    got, got_trace = traced_run(repeat_multitactic(J, all_mt(J, t)), state, 20)
    assert calls[0] == 2
    want, want_trace = traced_run(full_sweep_repeat(all_mt(J, t)), state, 20)
    assert got == want and got_trace == want_trace
    [(_, settled)] = tele_goals(got.value.telescope)
    assert [J.render(g) for _, g in tele_goals(settled.telescope)] == ["add x y"]
    # as goals do not share a shape when their variables' sorts differ
    e = Var("e", arith.EXP)
    shapes = {tactic._shape(arith.EvalGoal(ctx, v)) for v in (x, e, Var("f", arith.EXP))}
    assert len(shapes) == 2


def test_a_goal_with_an_open_term_is_never_served_from_the_table():
    # the step refuses `eval num x` and `eval num y`, which differ only in
    # their variables; a goal with an open term has no shape, so both are
    # attacked
    ctx = Context((("x", arith.NUM), ("y", arith.NUM)))
    b = TeleBuilder(J, ctx)
    for v in ("x", "y"):
        b.push(arith.EvalGoal(b.prefix, App(arith.NUM_OP, (Var(v, arith.NUM),))), ("c", "v"))
    state = b.close(Substitution(b.prefix, EMPTY, ()))
    assert all(tactic._shape(g) is None for _, g in tele_goals(state.telescope))
    calls = {}
    got = resolve(repeat_multitactic(J, all_mt(J, counted_step(calls))), state, 20)
    assert isinstance(got, Resolved)
    assert calls == {"num_eval": 2, "plus_eval": 2, "add": 2}


@pytest.mark.parametrize("script", [arith.AUTO_SCRIPT, arith.AUTO_NAIVE_SCRIPT])
def test_a_traced_run_makes_the_rule_calls_an_untraced_one_makes(monkeypatch, capsys, script):
    calls = counted_rules(monkeypatch)
    counts = []
    for trace in (False, True):
        calls[0] = 0
        out = execute(RunConfig("arith", f"eval {balanced_sum(4)}", script, trace=trace))
        assert out.status in ("complete", "incomplete")
        counts.append(calls[0])
    assert capsys.readouterr().err
    assert counts[0] == counts[1]
