"""Refinement rules, clause tables, indexed dispatch, and the rule law."""

import dataclasses
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from refkit.logics import arith, dep
from refkit.rule import (
    Rule,
    _admits,
    check_heads,
    check_lax_naturality,
    check_support_locality,
    clause_rule,
    goal_support,
    rule_seq,
    support_moves,
)
from refkit.state import (
    Bot,
    Fail,
    Subgoals,
    pretty_state,
    state_alpha_eq,
    state_subst,
    state_unit,
    tele_goals,
)
from refkit.theory import App, Context, Substitution, Var, subst_weaken

from strategies import rand_context, rand_goal, rand_subst
from test_acceptance import _arith_samples as criterion_03_arith
from test_acceptance import _dep_samples as criterion_03_dep
from test_binder_names import rand_any_goal

J = arith.STRUCTURE
D = dep.STRUCTURE
EMPTY = Context(())


def run_on(rule, goal):
    return rule.run(goal.context, goal)


def test_clause_rule_falls_through_to_fail():
    probe = clause_rule(
        J,
        "only_numerals",
        (
            (
                lambda ctx, g: isinstance(g, arith.EvalGoal)
                and isinstance(g.expr, App)
                and g.expr.op == arith.NUM_OP,
                lambda ctx, g: state_unit(J, g),
            ),
        ),
    )
    hit = run_on(probe, arith.EvalGoal(EMPTY, arith.num(2)))
    assert isinstance(hit, Subgoals)
    miss = run_on(probe, arith.EvalGoal(EMPTY, arith.plus(arith.num(1), arith.num(2))))
    assert miss == Fail(EMPTY, arith.EVAL_OUTPUT)


def test_clause_order_is_first_match_wins():
    first = clause_rule(
        J,
        "shadowed",
        (
            (lambda ctx, g: True, lambda ctx, g: Bot(ctx, J.output(g))),
            (lambda ctx, g: True, lambda ctx, g: state_unit(J, g)),
        ),
    )
    got = run_on(first, arith.EvalGoal(EMPTY, arith.num(1)))
    assert isinstance(got, Bot)


def test_rule_seq_dispatches_by_position():
    seen = []

    def recorder(tag):
        def run(ctx, g):
            seen.append((tag, J.render(g)))
            return state_unit(J, g)

        return Rule(tag, run)

    goal = arith.EvalGoal(EMPTY, arith.plus(arith.num(2), arith.num(3)))
    composed = rule_seq(J, arith.PLUS_EVAL, (recorder("a"), recorder("b")))
    assert composed.name == "plus_eval ; [a, b]"
    run_on(composed, goal)
    assert seen == [("a", "eval num 2"), ("b", "eval num 3")]
    # a refusal lands on the subgoal at its own position
    stuck = Rule("stuck", lambda ctx, g: Bot(ctx, J.output(g)))
    dead = Rule("dead", lambda ctx, g: Fail(ctx, J.output(g)))
    assert isinstance(run_on(rule_seq(J, arith.PLUS_EVAL, (arith.NUM_EVAL, stuck)), goal), Bot)
    assert isinstance(run_on(rule_seq(J, arith.PLUS_EVAL, (arith.NUM_EVAL, dead)), goal), Fail)
    assert isinstance(run_on(rule_seq(J, arith.PLUS_EVAL, (stuck, dead)), goal), Bot)
    assert isinstance(run_on(rule_seq(J, arith.PLUS_EVAL, (dead, stuck)), goal), Fail)


def test_rule_seq_leaves_goals_past_the_list_open():
    goal = arith.EvalGoal(EMPTY, arith.plus(arith.num(2), arith.num(3)))
    split = run_on(arith.PLUS_EVAL, goal)
    got = run_on(rule_seq(J, arith.PLUS_EVAL, ()), goal)
    assert state_alpha_eq(J, got, split)
    # an open goal stays as its unit state, under binders named after
    # its outputs
    one = run_on(rule_seq(J, arith.PLUS_EVAL, (arith.NUM_EVAL,)), goal)
    assert pretty_state(J, one) == (
        "[c, v] : eval num 3.\n"
        "n : add 0 c.\n"
        "n'1 : add 1 n.\n"
        "n'2 : add 2 v.\n"
        "▹ [n'1, n'2]"
    )


def test_rule_seq_threads_resolved_outputs_forward():
    # splitting 2 + 3 and then resolving both leaves only the additions,
    # with the resolved costs and values already substituted in
    composed = rule_seq(J, arith.PLUS_EVAL, (arith.NUM_EVAL, arith.NUM_EVAL))
    goal = arith.EvalGoal(EMPTY, arith.plus(arith.num(2), arith.num(3)))
    got = run_on(composed, goal)
    assert isinstance(got, Subgoals)
    leftover = [J.render(g) for _, g in tele_goals(got.telescope)]
    assert leftover == ["add 0 0", "add 1 n", "add 2 3"]


def test_rule_seq_collapses_when_a_branch_dies():
    composed = rule_seq(J, arith.PLUS_EVAL, (arith.ADD,))
    goal = arith.EvalGoal(EMPTY, arith.plus(arith.num(2), arith.num(3)))
    # the first subgoal is an eval, which the add rule refuses
    assert isinstance(run_on(composed, goal), Fail)


def _arith_samples(n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        ctx = rand_context(rng)
        goal = rand_goal(rng, ctx, 3)
        out.append((goal, rand_subst(rng, ctx)))
    return out


def test_arith_rules_are_lax_natural():
    samples = _arith_samples(400, 99)
    for rule in arith.RULES.values():
        assert check_lax_naturality(J, rule, samples) == []


def test_a_strict_variant_is_caught_by_the_law_checker():
    # answering Fail on a variable prop is too eager: substitution can
    # turn the variable into a disjunction the rule would have split
    strict = clause_rule(D, "or_i1_strict", ((dep._prop_is(dep.OR_OP), dep._or_i1_build),))
    ctx = Context((("x", dep.PROP),))
    goal = dep.TruthGoal(ctx, Var("x", dep.PROP))
    s = Substitution(EMPTY, ctx, (dep.or_(dep.top(), dep.top()),))
    failures = check_lax_naturality(D, strict, [(goal, s)])
    assert len(failures) == 1
    assert failures[0].rule == "or_i1_strict"
    assert isinstance(failures[0].substituted_answer, Fail)
    assert isinstance(failures[0].answer_at_substituted, Subgoals)


def test_the_shipped_disjunction_rule_passes_where_the_strict_one_fails():
    ctx = Context((("x", dep.PROP),))
    goal = dep.TruthGoal(ctx, Var("x", dep.PROP))
    s = Substitution(EMPTY, ctx, (dep.or_(dep.top(), dep.top()),))
    assert check_lax_naturality(D, dep.OR_I1, [(goal, s)]) == []


def _arith_moves():
    goals = (goal for goal, _ in criterion_03_arith())
    fillers = {arith.EXP: arith.num(0), arith.NUM: arith.nat(3)}
    return support_moves(goals, fillers, Context((("k", arith.NUM),)))


def _dep_moves():
    goals = (goal for goal, _ in criterion_03_dep())
    fillers = {dep.EXP: dep.tt(), dep.PROP: dep.top()}
    return support_moves(goals, fillers, Context((("k", dep.EXP),)))


def test_support_moves_add_no_extra_entry_over_a_kept_name():
    # the goal mentions x only, so y is kept or instantiated; adding the
    # extra y in front of the kept y would bind y twice
    ctx = Context((("x", arith.NUM), ("y", arith.NUM)))
    goal = arith.AddGoal(ctx, Var("x", arith.NUM), arith.nat(1))
    fillers = {arith.NUM: arith.nat(3)}
    clashing = support_moves([goal], fillers, Context((("y", arith.NUM),)))
    assert len(clashing) == 3
    assert [m.source.names.count("y") for _, m in clashing] == [1, 0, 1]
    assert len(support_moves([goal], fillers, Context((("z", arith.NUM),)))) == 4


def test_shipped_rules_are_support_local_on_the_criterion_03_pools():
    arith_moves = _arith_moves()
    dep_moves = _dep_moves()
    assert len(arith_moves) >= 100
    assert len(dep_moves) >= 5000
    for rule in arith.RULES.values():
        assert check_support_locality(J, rule, arith_moves) == []
    for rule in dep.RULES.values():
        assert check_support_locality(D, rule, dep_moves) == []


def _pool(structure, samples):
    """The criterion 03 goals, each with its instance under the sample's
    substitution."""
    for goal, s in samples:
        yield goal
        yield structure.subst(goal, s)


def test_shipped_heads_hold_on_the_criterion_03_pools():
    # every goal a rule's entry excludes, the rule answers FAIL on, as the
    # leaf that skips it does; each entry excludes some pooled goals
    for module, samples in ((arith, criterion_03_arith()), (dep, criterion_03_dep())):
        structure = module.STRUCTURE
        goals = list(dict.fromkeys(_pool(structure, samples)))
        assert module.HEADS.keys() == module.RULES.keys()
        for name, rule in module.RULES.items():
            heads = module.HEADS[name]
            assert check_heads(structure, rule, heads, goals) == []
            assert not all(_admits(heads, goal) for goal in goals)


def test_a_wrong_entry_is_caught_by_the_heads_law():
    # plus_eval admitting only numerals would skip it on every + goal
    goals = list(_pool(J, criterion_03_arith()))
    wrong = {arith.EvalGoal: ("expr", (arith.NUM_OP,))}
    failures = check_heads(J, arith.PLUS_EVAL, wrong, goals)
    assert failures
    for failure in failures:
        assert failure.rule == "plus_eval"
        assert failure.goal.expr.op is arith.PLUS_OP
        assert isinstance(failure.answer, Subgoals)
    # leaving out a class the rule answers on is caught as well
    assert check_heads(J, arith.ADD, {arith.EvalGoal: None}, goals)


def test_a_variable_in_the_indexed_field_is_admitted():
    # substitution can fill the variable with any head, so the rule runs
    ctx = Context((("x", arith.EXP),))
    goal = arith.EvalGoal(ctx, Var("x", arith.EXP))
    for name in ("num_eval", "plus_eval"):
        assert _admits(arith.HEADS[name], goal)
        assert isinstance(run_on(arith.RULES[name], goal), Bot)
    assert not _admits(arith.HEADS["add"], goal)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_whole_answers_are_support_local(seed):
    # a rule handed the goal over the context of its free variables alone
    # answers as over the full context, up to the names of its binders
    structure, rules, goal = rand_any_goal(random.Random(seed))
    free = goal_support(goal)
    support = Context(tuple(e for e in goal.context.entries if e[0] in free))
    local = dataclasses.replace(goal, context=support)
    back = subst_weaken(goal.context, support)
    for rule in rules.values():
        full = rule.run(goal.context, goal)
        answer = rule.run(support, local)
        assert type(answer) is type(full)
        if isinstance(full, Subgoals):
            moved = state_subst(structure, answer, back)
            assert state_alpha_eq(structure, moved, full)
            # the binders' stems are the rule's own, so the names agree too
            assert moved == full


def test_a_rule_that_reads_its_context_is_caught():
    def run(ctx, g):
        if any(sort == arith.NUM for _, sort in ctx.entries):
            return state_unit(J, g)
        return Bot(ctx, J.output(g))

    nosy = Rule("num_in_scope", run)
    moves = _arith_moves()
    failures = check_support_locality(J, nosy, moves)
    assert failures
    first = failures[0]
    assert first.rule == "num_in_scope"
    assert isinstance(first.answer, Subgoals)
    assert isinstance(first.answer_at_moved, Bot)
    # the goals it fails on are moved only by renamings of their own
    # variables: what changed is the rest of the context
    for failure in failures:
        images = [failure.move.lookup(name) for name in goal_support(failure.goal)]
        assert all(isinstance(t, Var) for t in images)
        assert len(set(images)) == len(images)
