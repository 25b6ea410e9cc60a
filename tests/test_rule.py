"""Refinement rules, clause tables, indexed dispatch, and the rule law."""

import random

from refkit.logics import arith, dep
from refkit.rule import (
    Rule,
    check_lax_naturality,
    clause_rule,
    rule_seq,
)
from refkit.state import (
    Bot,
    Fail,
    Subgoals,
    pretty_state,
    state_alpha_eq,
    state_unit,
    tele_goals,
)
from refkit.theory import App, Context, Substitution, Var

from strategies import rand_context, rand_goal, rand_subst

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
