"""The two packaged logics: expression costing and dependent truth."""

import random

import pytest

from refkit.cli import RunConfig, execute, main
from refkit.logics import arith, dep
from refkit.script import ParseError
from refkit.state import (
    Bot,
    Fail,
    Subgoals,
    TeleNil,
    state_alpha_eq,
    tele_goals,
)
from refkit.tactic import Resolved, run_delayed
from refkit.theory import App, Context, Var

from strategies import rand_closed_expr, rand_dep_closed_prop

J = arith.STRUCTURE
D = dep.STRUCTURE
EMPTY = Context(())


def run_tac(tac, goal, fuel=10000):
    got = run_delayed(tac(goal.context, goal), fuel)
    assert isinstance(got, Resolved)
    return got.value


def is_complete(state):
    return isinstance(state, Subgoals) and isinstance(state.telescope, TeleNil)


# ---------------------------------------------------------------- arith


def test_numeral_helpers():
    five = arith.nat(5)
    assert arith.is_numeral(five)
    assert arith.numeral_value(five) == 5
    assert not arith.is_numeral(Var("n", arith.NUM))


def test_expr_rendering_is_left_associative():
    e = arith.plus(arith.plus(arith.num(1), arith.num(2)), arith.num(3))
    assert arith.render_expr(e) == "num 1 + num 2 + num 3"
    nested = arith.plus(arith.num(1), arith.plus(arith.num(2), arith.num(3)))
    assert arith.render_expr(nested) == "num 1 + (num 2 + num 3)"


def test_goal_rendering():
    assert J.render(arith.EvalGoal(EMPTY, arith.num(7))) == "eval num 7"
    goal = arith.AddGoal(EMPTY, arith.nat(1), Var("n", arith.NUM))
    assert J.render(goal) == "add 1 n"


def test_num_eval_rule_cases():
    done = arith.NUM_EVAL.run(EMPTY, arith.EvalGoal(EMPTY, arith.num(6)))
    assert is_complete(done)
    assert done.validation.terms == (arith.nat(0), arith.nat(6))
    split = arith.NUM_EVAL.run(
        EMPTY, arith.EvalGoal(EMPTY, arith.plus(arith.num(1), arith.num(2)))
    )
    assert isinstance(split, Fail)
    ctx = Context((("g0", arith.EXP),))
    blocked = arith.NUM_EVAL.run(ctx, arith.EvalGoal(ctx, Var("g0", arith.EXP)))
    assert isinstance(blocked, Bot)


def test_plus_eval_rule_splits_into_five_dependent_goals():
    goal = arith.EvalGoal(EMPTY, arith.plus(arith.num(2), arith.num(3)))
    state = arith.PLUS_EVAL.run(EMPTY, goal)
    assert isinstance(state, Subgoals)
    rendered = [J.render(g) for _, g in tele_goals(state.telescope)]
    assert rendered == [
        "eval num 2",
        "eval num 3",
        "add xc yc",
        "add 1 zc",
        "add xv yv",
    ]
    assert [n for n, _ in tele_goals(state.telescope)] == [
        ("xc", "xv"), ("yc", "yv"), ("zc",), ("zc1",), ("zv",),
    ]
    assert state.validation.terms == (
        Var("zc1", arith.NUM), Var("zv", arith.NUM),
    )


def test_plus_eval_freshens_binders_against_the_ambient_context():
    ctx = Context((("xc", arith.NUM), ("yv", arith.NUM)))
    goal = arith.EvalGoal(ctx, arith.plus(arith.num(1), arith.num(1)))
    state = arith.PLUS_EVAL.run(ctx, goal)
    names = [n for ns, _ in tele_goals(state.telescope) for n in ns]
    assert "xc'1" in names and "yv'1" in names
    assert len(set(names)) == len(names)


def test_add_rule_cases():
    done = arith.ADD.run(EMPTY, arith.AddGoal(EMPTY, arith.nat(2), arith.nat(3)))
    assert is_complete(done)
    assert done.validation.terms == (arith.nat(5),)
    ctx = Context((("n", arith.NUM),))
    blocked = arith.ADD.run(ctx, arith.AddGoal(ctx, Var("n", arith.NUM), arith.nat(1)))
    assert isinstance(blocked, Bot)
    other = arith.ADD.run(EMPTY, arith.EvalGoal(EMPTY, arith.num(1)))
    assert isinstance(other, Fail)


def test_eval_oracle_counts_and_sums():
    e = arith.plus(arith.plus(arith.num(1), arith.num(2)), arith.num(4))
    assert arith.eval_oracle(e) == (2, 7)
    assert arith.eval_oracle(arith.num(9)) == (0, 9)


def test_breadth_auto_matches_the_oracle_on_random_expressions():
    rng = random.Random(1009)
    auto = arith.auto()
    for _ in range(40):
        e = rand_closed_expr(rng, 4)
        goal = arith.EvalGoal(EMPTY, e)
        got = run_tac(auto, goal)
        cost, value = arith.eval_oracle(e)
        assert is_complete(got)
        assert got.validation.terms == (arith.nat(cost), arith.nat(value))


def test_depth_first_auto_leaves_the_known_residue():
    goal = arith.EvalGoal(EMPTY, arith.plus(arith.num(2), arith.num(3)))
    got = run_tac(arith.auto_naive(), goal)
    rendered = [J.render(g) for _, g in tele_goals(got.telescope)]
    assert rendered == ["add 0 0", "add 1 n", "add 2 3"]
    binders = [n for ns, _ in tele_goals(got.telescope) for n in ns]
    assert binders == ["n", "n'1", "n'2"]


def test_arith_parse_goal():
    goal = arith.parse_goal("eval num 1 + num 2")
    assert goal == arith.EvalGoal(
        EMPTY, arith.plus(arith.num(1), arith.num(2))
    )
    grouped = arith.parse_goal("eval num 1 + (num 2 + num 3)")
    assert grouped.expr == arith.plus(
        arith.num(1), arith.plus(arith.num(2), arith.num(3))
    )
    added = arith.parse_goal("add 2 3")
    assert added == arith.AddGoal(EMPTY, arith.nat(2), arith.nat(3))


def test_arith_parse_goal_rejects_junk():
    for text in (
        "eval num", "frob 1", "eval (num 1", "add x y", "add 1", "", "eval _x",
    ):
        with pytest.raises(ParseError) as err:
            arith.parse_goal(text)
        assert 0 <= err.value.position <= len(text)
    with pytest.raises(ParseError) as err:
        arith.parse_goal("eval num 1 + ?")
    assert err.value.position == 13


def test_goals_read_back_from_their_rendering():
    rng = random.Random(4242)
    for _ in range(300):
        goal = arith.EvalGoal(EMPTY, rand_closed_expr(rng, 4))
        assert arith.parse_goal(J.render(goal)) == goal
        goal = dep.TruthGoal(EMPTY, rand_dep_closed_prop(rng, 4))
        assert dep.parse_goal(D.render(goal)) == goal


# ------------------------------------------------------------------ dep


def test_prop_rendering_reads_back():
    text = "sig(x. eq(x, tt), top)"
    goal = dep.parse_goal(f"true {text}")
    assert D.render(goal) == f"true {text}"
    assert D.render(dep.parse_goal("true or(top, eq(tt, refl))")) == (
        "true or(top, eq(tt, refl))"
    )


def test_top_i_closes_with_canonical_evidence():
    done = dep.TOP_I.run(EMPTY, dep.TruthGoal(EMPTY, dep.top()))
    assert is_complete(done)
    assert done.validation.terms == (dep.tt(),)
    miss = dep.TOP_I.run(EMPTY, dep.TruthGoal(EMPTY, dep.eq(dep.tt(), dep.tt())))
    assert isinstance(miss, Fail)


def test_or_i1_takes_the_left_branch():
    goal = dep.TruthGoal(EMPTY, dep.or_(dep.top(), dep.eq(dep.tt(), dep.refl())))
    state = dep.OR_I1.run(EMPTY, goal)
    assert isinstance(state, Subgoals)
    [(names, sub)] = tele_goals(state.telescope)
    assert D.render(sub) == "true top"
    assert state.validation.terms == (dep.inl(Var(names[0], dep.EXP)),)


def test_eq_refl_clause_order():
    same = dep.TruthGoal(EMPTY, dep.eq(dep.tt(), dep.tt()))
    assert is_complete(dep.EQ_REFL.run(EMPTY, same))
    ctx = Context((("m", dep.EXP),))
    open_sides = dep.TruthGoal(ctx, dep.eq(Var("m", dep.EXP), dep.tt()))
    assert isinstance(dep.EQ_REFL.run(ctx, open_sides), Bot)
    # a variable equation with equal sides counts as settled, not stuck
    open_equal = dep.TruthGoal(ctx, dep.eq(Var("m", dep.EXP), Var("m", dep.EXP)))
    assert is_complete(dep.EQ_REFL.run(ctx, open_equal))
    distinct = dep.TruthGoal(EMPTY, dep.eq(dep.tt(), dep.refl()))
    assert isinstance(dep.EQ_REFL.run(EMPTY, distinct), Fail)


def test_sig_i_opens_the_body_at_the_witness():
    goal = dep.parse_goal("true sig(x. eq(x, tt), top)")
    state = dep.SIG_I.run(EMPTY, goal)
    assert isinstance(state, Subgoals)
    goals = tele_goals(state.telescope)
    assert [D.render(g) for _, g in goals] == [
        "true top",
        "true eq(m, tt)",
    ]
    assert state.validation.terms == (
        dep.pair(Var("m", dep.EXP), Var("n", dep.EXP)),
    )


def test_outer_binder_reaches_a_nested_base_but_not_a_nested_body():
    goal = dep.parse_goal("true sig(x. sig(y. eq(y, tt), eq(x, tt)), top)")
    state = dep.SIG_I.run(EMPTY, goal)
    [_, (_, second)] = tele_goals(state.telescope)
    assert D.render(second) == "true sig(x. eq(x, tt), eq(m, tt))"


def test_dep_auto_agrees_with_the_oracle_on_random_props():
    rng = random.Random(7321)
    auto = dep.auto()
    provable = 0
    for _ in range(60):
        prop = rand_dep_closed_prop(rng, 3)
        want = dep.prove_oracle(prop)
        got = run_tac(auto, dep.TruthGoal(EMPTY, prop))
        if want is None:
            assert not is_complete(got)
        else:
            provable += 1
            assert is_complete(got)
            assert got.validation.terms == (want,)
    assert provable >= 5


def test_dep_parse_goal_scoping_and_errors():
    goal = dep.parse_goal("true sig(x. eq(x, x), eq(tt, tt))")
    body_b = goal.prop.args[1]
    assert body_b == dep.eq(dep.SLOT, dep.SLOT)
    for text in (
        "true eq(x, tt)",       # unbound variable
        "true sig(eq(tt, tt), top)",  # missing binder
        "maybe top",
        "true or(top)",
        "true",
        "true eq(1, tt)",       # no numerals in this logic
        "true sig(x². top, top)",  # a binder must be a Python identifier
    ):
        with pytest.raises(ParseError) as err:
            dep.parse_goal(text)
        assert 0 <= err.value.position <= len(text)
    with pytest.raises(ParseError) as err:
        dep.parse_goal("true eq(1, tt)")
    assert err.value.position == 8


def test_a_nested_sig_body_cannot_capture_the_outer_binder(capsys):
    captured = "true sig(x. sig(y. eq(x, inl(tt)), top), or(top, top))"
    with pytest.raises(ParseError):
        dep.parse_goal(captured)
    argv = ["--logic", "dep", "--goal", captured, "--script", dep.AUTO_SCRIPT]
    assert main(argv) == 5
    assert capsys.readouterr().out == ""
    # the outer binder may appear in the nested sig's base instead
    goal = "true sig(x. sig(y. eq(y, refl), eq(x, inl(tt))), or(top, top))"
    out = execute(RunConfig("dep", goal, dep.AUTO_SCRIPT))
    assert out.status == "complete"
    want = dep.pair(dep.inl(dep.tt()), dep.pair(dep.refl(), dep.refl()))
    assert out.state.validation.terms == (want,)
    assert dep.prove_oracle(dep.parse_goal(goal).prop) == want
