"""Arithmetic logic: cost-counting evaluation of + expressions.

Two judgment forms: `eval e` asks for a cost and a value, `add m n` asks
for a sum.  Evaluation of a + node costs one unit plus the costs of the
operands, so the cost output counts + nodes.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from ..judgment import JudgmentStructure, require_boundary
from ..rule import Heads, Rule, clause_rule
from ..script import compile_text
from ..state import Bot, Subgoals, TeleBuilder, TeleNil
from ..syntax import Cursor
from ..tactic import Tactic
from ..theory import (
    App,
    Context,
    Operator,
    Sort,
    Substitution,
    Term,
    TheoryError,
    UnsortedTerm,
    Var,
    check_term,
    render_term,
    subst_apply,
    term_sort,
)

NUM = Sort("num")
EXP = Sort("exp")

NUM_OP = Operator("num", (NUM,), EXP)
PLUS_OP = Operator("+", (EXP, EXP), EXP)


def nat(n: int) -> Term:
    if n < 0:
        raise UnsortedTerm("numerals are naturals")
    return App(Operator(str(n), (), NUM), ())


def num(n: int) -> Term:
    return App(NUM_OP, (nat(n),))


def plus(a: Term, b: Term) -> Term:
    return App(PLUS_OP, (a, b))


def is_numeral(t: Term) -> bool:
    return (
        isinstance(t, App)
        and not t.args
        and t.op.result == NUM
        and t.op.name.isdigit()
    )


def numeral_value(t: Term) -> int:
    return int(t.op.name)


@dataclass(frozen=True, slots=True)
class EvalGoal:
    context: Context
    expr: Term


@dataclass(frozen=True, slots=True)
class AddGoal:
    context: Context
    lhs: Term
    rhs: Term


EVAL_OUTPUT = Context((("c", NUM), ("v", NUM)))
ADD_OUTPUT = Context((("n", NUM),))


class ArithStructure(JudgmentStructure):
    # each method dispatches on the judgment's exact class

    def check(self, judgment) -> None:
        cls = judgment.__class__
        if cls is EvalGoal:
            check_term(judgment.context, judgment.expr)
            if term_sort(judgment.expr) != EXP:
                raise UnsortedTerm("eval expects an expression")
        elif cls is AddGoal:
            check_term(judgment.context, judgment.lhs)
            check_term(judgment.context, judgment.rhs)
            if term_sort(judgment.lhs) != NUM or term_sort(judgment.rhs) != NUM:
                raise UnsortedTerm("add expects numbers")
        else:
            raise TheoryError(f"unknown judgment: {judgment!r}")

    def subst(self, judgment, s: Substitution):
        require_boundary(judgment, s)
        cls = judgment.__class__
        if cls is EvalGoal:
            return EvalGoal(s.source, subst_apply(judgment.expr, s))
        if cls is AddGoal:
            return AddGoal(
                s.source, subst_apply(judgment.lhs, s), subst_apply(judgment.rhs, s)
            )
        raise TheoryError(f"unknown judgment: {judgment!r}")

    def output(self, judgment) -> Context:
        cls = judgment.__class__
        if cls is EvalGoal:
            return EVAL_OUTPUT
        if cls is AddGoal:
            return ADD_OUTPUT
        raise TheoryError(f"unknown judgment: {judgment!r}")

    def render(self, judgment) -> str:
        cls = judgment.__class__
        if cls is EvalGoal:
            return f"eval {render_expr(judgment.expr)}"
        if cls is AddGoal:
            return f"add {render_term(judgment.lhs)} {render_term(judgment.rhs)}"
        raise TheoryError(f"unknown judgment: {judgment!r}")


def _plus_form(t: App) -> tuple:
    # + is left associative, so only a sum on the right is parenthesised
    left, right = t.args
    if right.__class__ is App and right.op is PLUS_OP:
        return (left, " + (", right, ")")
    return (left, " + ", right)


_NOTATION = {NUM_OP: lambda t: ("num ", t.args[0]), PLUS_OP: _plus_form}


def render_expr(t: Term) -> str:
    if term_sort(t) != EXP:
        raise TheoryError(f"not an arith expression: {t!r}")
    return render_term(t, _NOTATION)


STRUCTURE = ArithStructure()


def _complete(ctx: Context, target: Context, terms: tuple[Term, ...]) -> Subgoals:
    return Subgoals(TeleNil(ctx), Substitution(ctx, target, terms))


def _num_eval_build(ctx: Context, goal: EvalGoal) -> Subgoals:
    literal = goal.expr.args[0]
    return _complete(ctx, EVAL_OUTPUT, (nat(0), literal))


def _plus_eval_build(ctx: Context, goal: EvalGoal) -> Subgoals:
    e1, e2 = goal.expr.args
    b = TeleBuilder(STRUCTURE, ctx)
    xc, xv = b.push(EvalGoal(b.prefix, e1), ("xc", "xv"))
    yc, yv = b.push(EvalGoal(b.prefix, e2), ("yc", "yv"))
    (zc,) = b.push(AddGoal(b.prefix, xc, yc), ("zc",))
    (zc1,) = b.push(AddGoal(b.prefix, nat(1), zc), ("zc1",))
    (zv,) = b.push(AddGoal(b.prefix, xv, yv), ("zv",))
    return b.close(Substitution(b.prefix, EVAL_OUTPUT, (zc1, zv)))


def _eval_goal_var(ctx: Context, goal) -> bool:
    return isinstance(goal, EvalGoal) and isinstance(goal.expr, Var)


NUM_EVAL = clause_rule(
    STRUCTURE,
    "num_eval",
    (
        (
            lambda ctx, g: isinstance(g, EvalGoal)
            and isinstance(g.expr, App)
            and g.expr.op == NUM_OP
            and is_numeral(g.expr.args[0]),
            _num_eval_build,
        ),
        (_eval_goal_var, lambda ctx, g: Bot(ctx, EVAL_OUTPUT)),
    ),
)

PLUS_EVAL = clause_rule(
    STRUCTURE,
    "plus_eval",
    (
        (
            lambda ctx, g: isinstance(g, EvalGoal)
            and isinstance(g.expr, App)
            and g.expr.op == PLUS_OP,
            _plus_eval_build,
        ),
        (_eval_goal_var, lambda ctx, g: Bot(ctx, EVAL_OUTPUT)),
    ),
)

ADD = clause_rule(
    STRUCTURE,
    "add",
    (
        (
            lambda ctx, g: isinstance(g, AddGoal)
            and is_numeral(g.lhs)
            and is_numeral(g.rhs),
            lambda ctx, g: _complete(
                ctx, ADD_OUTPUT, (nat(numeral_value(g.lhs) + numeral_value(g.rhs)),)
            ),
        ),
        (
            lambda ctx, g: isinstance(g, AddGoal),
            lambda ctx, g: Bot(ctx, ADD_OUTPUT),
        ),
    ),
)

RULES: dict[str, Rule] = {
    "num_eval": NUM_EVAL,
    "plus_eval": PLUS_EVAL,
    "add": ADD,
}

# the goals each rule can answer with anything but FAIL (rule.Heads)
HEADS: dict[str, Heads] = {
    "num_eval": {EvalGoal: ("expr", (NUM_OP,))},
    "plus_eval": {EvalGoal: ("expr", (PLUS_OP,))},
    "add": {AddGoal: None},
}


_STEP = "num_eval | plus_eval | add"
AUTO_SCRIPT = f"id; all({_STEP})*"
AUTO_NAIVE_SCRIPT = f"({_STEP})*"


def aux_tactic() -> Tactic:
    """First rule that forms subgoals wins: numerals, then +, then sums."""
    return compile_text(STRUCTURE, RULES, _STEP, HEADS)


def auto_naive() -> Tactic:
    """Depth-first automation; freezes on goals blocked by open outputs."""
    return compile_text(STRUCTURE, RULES, AUTO_NAIVE_SCRIPT, HEADS)


def auto() -> Tactic:
    """Round-based automation: retries every goal after each flattening."""
    return compile_text(STRUCTURE, RULES, AUTO_SCRIPT, HEADS)


def eval_oracle(t: Term) -> tuple[int, int]:
    """Cost and value the eval judgment should compute for a closed expr."""
    match t:
        case App(op, (lit,)) if op == NUM_OP:
            return 0, numeral_value(lit)
        case App(op, (a, b)) if op == PLUS_OP:
            c1, v1 = eval_oracle(a)
            c2, v2 = eval_oracle(b)
            return 1 + c1 + c2, v1 + v2
    raise TheoryError(f"open or ill-formed expression: {t!r}")


def parse_goal(text: str):
    """Parse `eval <expr>` or `add <nat> <nat>` over the empty context."""
    cur = _GoalCursor(text, "()+")
    if cur.take("eval"):
        goal = EvalGoal(Context(), _parse_expr(cur))
    elif cur.take("add"):
        goal = AddGoal(Context(), cur.nat(), cur.nat())
    else:
        raise cur.error(f"unknown goal form {cur.peek()!r}")
    cur.expect_end()
    return goal


class _GoalCursor(Cursor):
    """A cursor over a goal that sums its numerals as it reads them.

    Every numeral a run makes is a sum of some of the goal's numerals or
    a count of its + nodes, so a goal is rejected at the numeral that
    takes the sum past what Python prints (sys.get_int_max_str_digits).
    """

    total = 0

    def nat(self) -> Term:
        word = self.expect("nat")
        try:
            value = int(word)
            self.total += value
            str(self.total)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            message = f"a numeral or the sum of numerals passes {limit} digits"
            raise self.error(message, self.pos - 1) from None
        return nat(value)


def _parse_expr(cur: _GoalCursor) -> Term:
    term = _parse_atom(cur)
    while cur.take("+"):
        term = App(PLUS_OP, (term, _parse_atom(cur)))
    return term


def _parse_atom(cur: _GoalCursor) -> Term:
    if cur.take("num"):
        return App(NUM_OP, (cur.nat(),))
    if cur.take("("):
        expr = _parse_expr(cur)
        cur.expect(")")
        return expr
    raise cur.error(f"expected an expression, found {cur.peek()!r}")
