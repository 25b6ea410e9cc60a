"""Dependent logic: truth goals whose evidence feeds later goals.

Propositions include a dependent pair former sig(x. B, A) whose body B
may mention the evidence x of A.  The sig operator declares that its
body binds the slot variable SLOT, which user identifiers cannot collide
with; only rendering gives it a printable name.  So the term layer does
all the binding: substitution passes the binder by, `instantiate` opens
a body with a term, `check_term` checks a body with its slot in scope,
and a sig whose body mentions only its slot is closed.

A sig body's scope holds only its own binder, because a nested sig's
slot would capture an outer one: the parser rejects a body that mentions
an outer binder.  A nested sig's base keeps the enclosing scope.  The
expression forms tt, refl, inl and pair are reserved: none is a binder.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..judgment import JudgmentStructure, require_boundary
from ..rule import Rule, clause_rule
from ..script import compile_text
from ..state import Bot, Subgoals, TeleBuilder, TeleNil
from ..syntax import Cursor, ParseError, lex
from ..tactic import Tactic
from ..theory import (
    App,
    Context,
    NameSupply,
    Operator,
    Sort,
    Substitution,
    Term,
    TheoryError,
    UnsortedTerm,
    Var,
    check_term,
    instantiate,
    render_term,
    subst_apply,
    term_sort,
    term_vars,
)

PROP = Sort("prop")
EXP = Sort("exp")

# the bound occurrence inside a sig body; '$' is outside the identifier
# alphabet, so user terms can never capture or mention it
SLOT = Var("$x", EXP)

TOP_OP = Operator("top", (), PROP)
OR_OP = Operator("or", (PROP, PROP), PROP)
EQ_OP = Operator("eq", (EXP, EXP), PROP)
# sig(base, body): the body binds SLOT
SIG_OP = Operator("sig", (PROP, PROP), PROP, binds=(None, SLOT))

TT_OP = Operator("tt", (), EXP)
REFL_OP = Operator("refl", (), EXP)
INL_OP = Operator("inl", (EXP,), EXP)
PAIR_OP = Operator("pair", (EXP, EXP), EXP)


def top() -> Term:
    return App(TOP_OP, ())


def or_(a: Term, b: Term) -> Term:
    return App(OR_OP, (a, b))


def eq(a: Term, b: Term) -> Term:
    return App(EQ_OP, (a, b))


def tt() -> Term:
    return App(TT_OP, ())


def refl() -> Term:
    return App(REFL_OP, ())


def inl(e: Term) -> Term:
    return App(INL_OP, (e,))


def pair(a: Term, b: Term) -> Term:
    return App(PAIR_OP, (a, b))


@dataclass(frozen=True)
class TruthGoal:
    context: Context
    prop: Term


TRUTH_OUTPUT = Context((("e", EXP),))


class DepStructure(JudgmentStructure):
    def check(self, judgment) -> None:
        match judgment:
            case TruthGoal(ctx, prop):
                check_term(ctx, prop)
                if term_sort(prop) != PROP:
                    raise UnsortedTerm("truth goals are about propositions")
            case _:
                raise TheoryError(f"unknown judgment: {judgment!r}")

    def subst(self, judgment, s: Substitution):
        require_boundary(judgment, s)
        match judgment:
            case TruthGoal(_, prop):
                return TruthGoal(s.source, subst_apply(prop, s))
        raise TheoryError(f"unknown judgment: {judgment!r}")

    def output(self, judgment) -> Context:
        return TRUTH_OUTPUT

    def render(self, judgment) -> str:
        return f"true {render_prop(judgment.prop)}"


def render_prop(t: Term) -> str:
    match t:
        case App(op, (a, b)) if op == SIG_OP:
            name = NameSupply(term_vars(b)).fresh("x")
            body = instantiate(b, SLOT, Var(name, EXP))
            return f"sig({name}. {render_prop(body)}, {render_prop(a)})"
        case App(op, args) if PROP in op.arg_sorts:
            parts = ", ".join(render_prop(a) for a in args)
            return f"{op.name}({parts})"
    return render_term(t)


STRUCTURE = DepStructure()


def _complete(ctx: Context, term: Term) -> Subgoals:
    return Subgoals(
        TeleNil(ctx), Substitution(ctx, TRUTH_OUTPUT, (term,))
    )


def _prop_is(op: Operator):
    return lambda ctx, g: (
        isinstance(g, TruthGoal)
        and isinstance(g.prop, App)
        and g.prop.op == op
    )


def _prop_var(ctx: Context, g) -> bool:
    return isinstance(g, TruthGoal) and isinstance(g.prop, Var)


def _bot(ctx: Context, g) -> Bot:
    return Bot(ctx, TRUTH_OUTPUT)


def _top_i_build(ctx: Context, g: TruthGoal) -> Subgoals:
    return _complete(ctx, tt())


def _or_i1_build(ctx: Context, g: TruthGoal) -> Subgoals:
    left, _ = g.prop.args
    b = TeleBuilder(STRUCTURE, ctx)
    (x,) = b.push(TruthGoal(b.prefix, left), ("x",))
    return b.close(Substitution(b.prefix, TRUTH_OUTPUT, (inl(x),)))


def _eq_refl_sides_equal(ctx: Context, g) -> bool:
    return _prop_is(EQ_OP)(ctx, g) and g.prop.args[0] == g.prop.args[1]


def _eq_refl_open(ctx: Context, g) -> bool:
    return _prop_is(EQ_OP)(ctx, g) and not g.prop.closed


def _sig_i_build(ctx: Context, g: TruthGoal) -> Subgoals:
    # a variable outside the goal's context is an error
    check_term(ctx, g.prop)
    base, body = g.prop.args
    b = TeleBuilder(STRUCTURE, ctx)
    (m,) = b.push(TruthGoal(b.prefix, base), ("m",))
    (n,) = b.push(TruthGoal(b.prefix, instantiate(body, SLOT, m)), ("n",))
    return b.close(Substitution(b.prefix, TRUTH_OUTPUT, (pair(m, n),)))


TOP_I = clause_rule(
    STRUCTURE,
    "top_i",
    (
        (_prop_is(TOP_OP), _top_i_build),
        (_prop_var, _bot),
    ),
)

OR_I1 = clause_rule(
    STRUCTURE,
    "or_i1",
    (
        (_prop_is(OR_OP), _or_i1_build),
        (_prop_var, _bot),
    ),
)

EQ_REFL = clause_rule(
    STRUCTURE,
    "eq_refl",
    (
        (_eq_refl_sides_equal, lambda ctx, g: _complete(ctx, refl())),
        (_eq_refl_open, _bot),
        (_prop_var, _bot),
    ),
)

SIG_I = clause_rule(
    STRUCTURE,
    "sig_i",
    (
        (_prop_is(SIG_OP), _sig_i_build),
        (_prop_var, _bot),
    ),
)

RULES: dict[str, Rule] = {
    "top_i": TOP_I,
    "or_i1": OR_I1,
    "eq_refl": EQ_REFL,
    "sig_i": SIG_I,
}

_STEP = "top_i | or_i1 | eq_refl | sig_i"
AUTO_SCRIPT = f"id; all({_STEP})*"


def aux_tactic() -> Tactic:
    return compile_text(STRUCTURE, RULES, _STEP)


def auto() -> Tactic:
    return compile_text(STRUCTURE, RULES, AUTO_SCRIPT)


def prove_oracle(t: Term) -> Term | None:
    """Evidence the packaged rules can find for a closed proposition.

    Mirrors the rule set, including its one-sidedness: a disjunction is
    only ever proved on the left.
    """
    match t:
        case App(op, ()) if op == TOP_OP:
            return tt()
        case App(op, (a, _)) if op == OR_OP:
            ev = prove_oracle(a)
            return inl(ev) if ev is not None else None
        case App(op, (a, b)) if op == EQ_OP:
            return refl() if a == b else None
        case App(op, (a, b)) if op == SIG_OP:
            ev_a = prove_oracle(a)
            if ev_a is None:
                return None
            ev_b = prove_oracle(instantiate(b, SLOT, ev_a))
            return pair(ev_a, ev_b) if ev_b is not None else None
    return None


def parse_goal(text: str):
    """Parse `true <prop>` over the empty context."""
    cur = Cursor(lex(text, "(),."))
    if not cur.take("ident", "true"):
        raise ParseError("expected: true <proposition>", cur.peek().offset)
    prop = _parse_prop(cur, None)
    cur.expect_end()
    return TruthGoal(Context(), prop)


# the expression forms, which _parse_exp reads before it looks for a binder
_EXP_FORMS = ("tt", "refl", "inl", "pair")


def _parse_prop(cur: Cursor, bound: str | None) -> Term:
    """A proposition; `bound` names the binder of the innermost sig body."""
    tok = cur.expect("ident")
    match tok.text:
        case "top":
            return top()
        case "or":
            return or_(*_parse_args(cur, _parse_prop, bound, 2))
        case "eq":
            return eq(*_parse_args(cur, _parse_exp, bound, 2))
        case "sig":
            cur.expect("(")
            binder = cur.expect("ident")
            if not binder.text.isidentifier() or binder.text in _EXP_FORMS:
                raise ParseError(f"bad binder {binder.text!r}", binder.offset)
            cur.expect(".")
            body = _parse_prop(cur, binder.text)
            cur.expect(",")
            base = _parse_prop(cur, bound)
            cur.expect(")")
            return App(SIG_OP, (base, body))
    raise ParseError(f"unknown proposition form {tok.text!r}", tok.offset)


def _parse_exp(cur: Cursor, bound: str | None) -> Term:
    tok = cur.expect("ident")
    match tok.text:
        case "tt":
            return tt()
        case "refl":
            return refl()
        case "inl":
            return inl(*_parse_args(cur, _parse_exp, bound, 1))
        case "pair":
            return pair(*_parse_args(cur, _parse_exp, bound, 2))
        case name if name == bound:
            return SLOT
    raise ParseError(f"unknown or unbound name {tok.text!r}", tok.offset)


def _parse_args(cur: Cursor, parse, bound: str | None, count: int) -> list[Term]:
    cur.expect("(")
    args = [parse(cur, bound)]
    for _ in range(count - 1):
        cur.expect(",")
        args.append(parse(cur, bound))
    cur.expect(")")
    return args
