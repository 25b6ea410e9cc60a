"""The two packaged logics: expression costing and dependent truth."""

import random
import tracemalloc

import pytest

from refkit.cli import RunConfig, execute, main
from refkit.logics import arith, dep
from refkit.script import ParseError
from refkit.state import (
    Bot,
    Fail,
    Subgoals,
    TeleNil,
    pretty_state,
    tele_goals,
)
from refkit.tactic import Resolved, run_delayed
from refkit.theory import (
    App,
    Context,
    ContextMismatch,
    Substitution,
    TheoryError,
    UnsortedTerm,
    Var,
    render_term,
    subst_apply,
)

from reference import (
    outcome,
    ref_or_i1,
    ref_plus_eval,
    ref_prove_oracle,
    ref_render_prop,
    ref_sig_i,
    ref_subst,
    slot_extend,
)
from strategies import (
    rand_binder_context,
    rand_closed_expr,
    rand_dep_closed_prop,
    rand_dep_context,
    rand_dep_exp,
    rand_dep_prop,
    rand_dep_subst,
    rand_expr,
)

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
    x = Var("x", arith.EXP)
    mixed = arith.plus(arith.plus(x, nested), arith.num(4))
    assert arith.render_expr(mixed) == "x + (num 1 + (num 2 + num 3)) + num 4"
    with pytest.raises(TheoryError):
        arith.render_expr(arith.nat(1))


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
    # primes climb past the ones the context takes, and a base that ends
    # in a digit is primed like any other
    ctx = Context(
        (("xc", arith.NUM), ("xc'1", arith.NUM), ("zc1", arith.NUM), ("g", arith.EXP))
    )
    goal = arith.EvalGoal(ctx, arith.plus(Var("g", arith.EXP), arith.num(1)))
    assert pretty_state(J, arith.PLUS_EVAL.run(ctx, goal)) == (
        "[xc'2, xv] : eval g.\n"
        "[yc, yv] : eval num 1.\n"
        "zc : add xc'2 yc.\n"
        "zc1'1 : add 1 zc.\n"
        "zv : add xv yv.\n"
        "▹ [zc1'1, zv]"
    )


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
    # a left comb of 64 additions: the star stalls after d + 2 steps
    comb = "eval " + " + ".join(["num 1"] * 65)
    out = execute(RunConfig("arith", comb, arith.AUTO_NAIVE_SCRIPT))
    assert out.status == "incomplete"
    assert out.steps == 66


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


def assert_shared(*terms):
    """Equal subterms anywhere in terms are one object."""
    first: dict = {}
    todo = list(terms)
    while todo:
        t = todo.pop()
        if isinstance(t, App):
            assert first.setdefault(t, t) is t, t
            todo.extend(t.args)


def test_goals_read_back_from_their_rendering():
    rng = random.Random(4242)
    for _ in range(300):
        goal = arith.EvalGoal(EMPTY, rand_closed_expr(rng, 4))
        parsed = arith.parse_goal(J.render(goal))
        assert parsed == goal
        assert_shared(parsed.expr)
        goal = dep.TruthGoal(EMPTY, rand_dep_closed_prop(rng, 4))
        parsed = dep.parse_goal(D.render(goal))
        assert parsed == goal
        assert_shared(parsed.prop)
    for _ in range(30):
        lhs, rhs = rng.randint(0, 2), rng.randint(0, 2)
        parsed = arith.parse_goal(f"add {lhs} {rhs}")
        assert parsed == arith.AddGoal(EMPTY, arith.nat(lhs), arith.nat(rhs))
        assert_shared(parsed.lhs, parsed.rhs)


def test_a_repeated_witness_is_parsed_once():
    # each level's body spells out the witness of the level below, as in
    # a positional dep chain; that witness is the one object throughout
    prop, witness = "top", "tt"
    for _ in range(8):
        prop = f"sig(x. eq(x, {witness}), {prop})"
        witness = f"pair({witness}, refl)"
    sigs, p = [], dep.parse_goal("true " + prop).prop
    while p.op == dep.SIG_OP:
        sigs.append(p)
        p = p.args[0]
    witnesses = [s.args[1].args[1] for s in sigs]
    assert len(witnesses) == 8 and render_term(witnesses[-1]) == "tt"
    for outer, inner in zip(witnesses, witnesses[1:]):
        assert outer.args[0] is inner
    assert_shared(*sigs)


def positional_chain(levels):
    """`true` and a positional sig chain: each level's body spells out the
    witness of the level below, as in the dep-positional workload."""
    prop, witness = "top", "tt"
    for _ in range(levels):
        prop = f"sig(x. eq(x, {witness}), {prop})"
        witness = f"pair({witness}, refl)"
    return "true " + prop


def counted_apps(monkeypatch):
    """A list that grows by one per App the dep reader constructs."""
    made = []

    def app(op, args):
        made.append(op)
        return App(op, args)

    monkeypatch.setattr(dep, "App", app)
    return made


@pytest.mark.parametrize("levels", [24, 48, 96])
def test_a_positional_chain_is_read_in_linear_work(monkeypatch, levels):
    # each level's sig and eq, the top level's witness spelled out once
    # (a pair and a refl per level below, and tt), top, and the tt of the
    # lowest body: 4n + 1 terms; reading every word of every witness made
    # (n + 1)^2
    made = counted_apps(monkeypatch)
    text = positional_chain(levels)
    prop = dep.parse_goal(text).prop
    assert len(made) == 4 * levels + 1
    assert dep.render_prop(prop) == text[len("true "):]


def test_a_repeated_expression_under_another_binder_is_read_again():
    # pair(x, tt) reads as a term under the binder x and not under y
    with pytest.raises(ParseError) as err:
        dep.parse_goal(
            "true sig(x. eq(x, pair(x, tt)), sig(y. eq(y, pair(x, tt)), top))"
        )
    assert str(err.value) == "unknown or unbound name 'x' (at offset 50)"
    # nor in the sig's base, which is outside the body
    with pytest.raises(ParseError) as err:
        dep.parse_goal("true sig(x. eq(x, pair(x, tt)), eq(pair(x, tt), tt))")
    assert str(err.value) == "unknown or unbound name 'x' (at offset 40)"
    # the slot is one variable, so under two binders named x the same
    # words are one term
    goal = dep.parse_goal(
        "true sig(x. eq(x, pair(x, tt)), sig(x. eq(x, pair(x, tt)), top))"
    )
    base, body = goal.prop.args
    assert base.args[1].args[1] is body.args[1]


def test_goals_with_repeated_parts_read_back():
    # the reader hands a repeated expression back from its memo; the term
    # is the one reading the words again makes
    rng = random.Random(5150)
    slot = slot_extend(EMPTY)
    for _ in range(150):
        p, q = rand_dep_closed_prop(rng, 4), rand_dep_closed_prop(rng, 4)
        e, f = rand_dep_exp(rng, slot, 4), rand_dep_exp(rng, EMPTY, 3)
        body = dep.or_(dep.eq(e, f), dep.or_(p, dep.eq(dep.pair(f, e), dep.inl(e))))
        prop = dep.or_(App(dep.SIG_OP, (dep.eq(f, f), body)), dep.or_(q, p))
        assert dep.parse_goal("true " + ref_render_prop(prop)).prop is prop


def test_a_900_level_repeated_witness_is_read_in_little_memory():
    # the memo keeps a start, a length and a depth per form, not its words
    witness = "tt"
    for _ in range(900):
        witness = f"pair({witness}, refl)"
    text = f"true eq({witness}, {witness})"
    tracemalloc.start()
    try:
        goal = dep.parse_goal(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    left, right = goal.prop.args
    assert left is right
    assert peak < 4_000_000


def test_a_witness_repeated_deeper_than_it_was_read_stays_a_usage_error(capsys):
    # the second copy sits 700 levels deeper than the first; reading it
    # recurses too deep, so the goal is a usage error, and the memo does
    # not hand the first copy back there
    witness = "tt"
    for _ in range(400):
        witness = f"pair({witness}, refl)"
    deep = "or(" * 700 + f"eq({witness}, tt)" + ", top)" * 700
    goal = f"true or(eq({witness}, tt), {deep})"
    argv = ["--logic", "dep", "--goal", goal, "--script", dep.AUTO_SCRIPT]
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: nesting too deep in the goal or the script\n"


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
    # an expression form never resolves to a binder of the same name
    for text in (
        "true sig(refl. eq(refl, refl), top)",
        "true sig(tt. eq(tt, refl), top)",
        "true sig(pair. eq(pair, tt), top)",
        "true sig(inl. eq(tt, tt), top)",
    ):
        with pytest.raises(ParseError) as err:
            dep.parse_goal(text)
        assert err.value.position == len("true sig("), text
    # a proposition form is not reserved, since a binder is only ever
    # read where an expression is
    goal = dep.parse_goal("true sig(top. eq(top, tt), top)")
    assert goal.prop == App(dep.SIG_OP, (dep.top(), dep.eq(dep.SLOT, dep.tt())))


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


def _raises_exactly(cls, f, *args):
    with pytest.raises(Exception) as err:
        f(*args)
    assert type(err.value) is cls, repr(err.value)


def test_dep_check_accepts_context_variables_and_nested_sigs():
    ctx = Context((("y", dep.EXP),))
    y = Var("y", dep.EXP)
    nested = App(dep.SIG_OP, (dep.eq(y, dep.tt()), dep.eq(dep.SLOT, y)))
    prop = App(dep.SIG_OP, (dep.top(), dep.or_(dep.eq(dep.SLOT, y), nested)))
    D.check(dep.TruthGoal(ctx, prop))
    D.check(dep.parse_goal("true sig(x. sig(y. eq(y, tt), eq(x, tt)), top)"))


def test_dep_check_rejects_ill_scoped_and_ill_sorted_props():
    y = Var("y", dep.EXP)
    stray = dep.eq(dep.SLOT, dep.tt())
    # the slot's name at sort prop is not the variable the body binds
    body_prop = App(dep.SIG_OP, (dep.top(), Var(dep.SLOT.name, dep.PROP)))
    for ctx, prop, cls in [
        (EMPTY, dep.eq(y, dep.tt()), ContextMismatch),
        (EMPTY, App(dep.SIG_OP, (dep.top(), dep.eq(y, dep.SLOT))), ContextMismatch),
        (EMPTY, stray, ContextMismatch),
        (EMPTY, App(dep.SIG_OP, (stray, dep.top())), ContextMismatch),
        (EMPTY, body_prop, ContextMismatch),
        (EMPTY, dep.tt(), UnsortedTerm),
        (Context((("y", dep.EXP),)), y, UnsortedTerm),
    ]:
        _raises_exactly(cls, D.check, dep.TruthGoal(ctx, prop))


def test_sig_i_rejects_a_body_variable_outside_the_goal_context():
    y = Var("y", dep.EXP)
    goal = dep.TruthGoal(EMPTY, App(dep.SIG_OP, (dep.top(), dep.eq(y, dep.SLOT))))
    _raises_exactly(ContextMismatch, dep.SIG_I.run, EMPTY, goal)
    # bound in the goal's context, the same variable is carried over as is
    ctx = Context((("y", dep.EXP),))
    state = dep.SIG_I.run(ctx, dep.TruthGoal(ctx, goal.prop))
    [_, (_, second)] = tele_goals(state.telescope)
    assert second.prop == dep.eq(y, Var("m", dep.EXP))


# ------------------------------------------------------ the references
# Substitution past a sig binder, rendering, the oracle and the rule
# builders, against the naive kernel in tests/reference.py.


def test_subst_prop_matches_the_slot_subst_reference():
    covered = 0
    for seed in range(300):
        rng = random.Random(seed)
        target = rand_dep_context(rng)
        prop = rand_dep_prop(rng, target, 4)
        s = rand_dep_subst(rng, target)
        want = ref_subst(prop, s)
        assert subst_apply(prop, s) == want
        goal = dep.TruthGoal(target, prop)
        assert D.subst(goal, s) == dep.TruthGoal(s.source, want)
        # a substitution that misses a variable raises the same way
        short = Substitution(s.source, Context(target.entries[1:]), s.terms[1:])
        got = outcome(subst_apply, prop, short)
        assert got == outcome(ref_subst, prop, short)
        covered += got[0] == "raised"
    assert covered >= 30
    # outside any body there is no slot to fill, so a stray one is unbound
    stray = dep.eq(dep.SLOT, dep.tt())
    nothing = Substitution(EMPTY, EMPTY, ())
    _raises_exactly(ContextMismatch, subst_apply, stray, nothing)


def test_render_and_oracle_match_the_replace_var_reference():
    provable = 0
    for seed in range(300):
        rng = random.Random(seed)
        ctx = rand_dep_context(rng)
        prop = rand_dep_prop(rng, ctx, 4)
        assert dep.render_prop(prop) == ref_render_prop(prop)
        closed = rand_dep_closed_prop(rng, 4)
        want = ref_prove_oracle(closed)
        assert dep.prove_oracle(closed) == want
        provable += want is not None
    assert provable >= 30


def test_the_printers_take_no_frame_per_level():
    # 5000 levels lie well past Python's default limit of 1000 frames
    levels = 5000
    chain = dep.top()
    for _ in range(levels):
        chain = dep.or_(chain, dep.top())
    assert dep.render_prop(chain) == (
        "or(" * levels + "top" + ", top)" * levels
    )
    sigs = dep.top()
    for _ in range(levels):
        sigs = App(dep.SIG_OP, (sigs, dep.eq(dep.SLOT, dep.tt())))
    assert dep.render_prop(sigs) == (
        "sig(x. eq(x, tt), " * levels + "top" + ")" * levels
    )
    total = arith.num(1)
    for _ in range(levels):
        total = arith.plus(arith.num(1), total)
    # the innermost sum's right operand is a numeral, so it has none
    assert arith.render_expr(total) == (
        "num 1 + (" * (levels - 1) + "num 1 + num 1" + ")" * (levels - 1)
    )


def primed_binders(state):
    return any("'" in n for names, _ in tele_goals(state.telescope) for n in names)


def assert_rule_matches_the_reference(rule, structure, draw, reference):
    primed = 0
    for seed in range(300):
        rng = random.Random(seed)
        goal = draw(rng)
        got = rule.run(goal.context, goal)
        want = reference(goal.context, goal)
        assert got == want
        assert pretty_state(structure, got) == pretty_state(structure, want)
        primed += primed_binders(got)
    assert primed >= 50


def test_plus_eval_matches_the_hand_built_reference():
    def draw(rng):
        ctx = rand_binder_context(rng, (arith.NUM, arith.EXP))
        expr = arith.plus(rand_expr(rng, ctx, 2), rand_expr(rng, ctx, 2))
        return arith.EvalGoal(ctx, expr)

    assert_rule_matches_the_reference(arith.PLUS_EVAL, J, draw, ref_plus_eval)


def test_or_i1_matches_the_hand_built_reference():
    def draw(rng):
        ctx = rand_binder_context(rng, (dep.EXP,))
        prop = dep.or_(rand_dep_prop(rng, ctx, 3), rand_dep_prop(rng, ctx, 3))
        return dep.TruthGoal(ctx, prop)

    assert_rule_matches_the_reference(dep.OR_I1, D, draw, ref_or_i1)


def test_sig_i_matches_the_hand_built_reference():
    # contexts whose names collide with m and n, and with the binder x
    for draw_context in (
        lambda rng: rand_binder_context(rng, (dep.EXP,)),
        rand_dep_context,
    ):

        def draw(rng):
            ctx = draw_context(rng)
            body = rand_dep_prop(rng, slot_extend(ctx), 3)
            prop = App(dep.SIG_OP, (rand_dep_prop(rng, ctx, 3), body))
            return dep.TruthGoal(ctx, prop)

        assert_rule_matches_the_reference(dep.SIG_I, D, draw, ref_sig_i)

