"""Dependent logic: truth goals whose evidence feeds later goals.

Propositions include a dependent pair former sig(x. B, A) whose body B
may mention the evidence x of A.  Internally the bound occurrence is a
reserved slot variable that user identifiers cannot collide with; only
rendering gives it a printable name.

A sig body's scope holds only its own binder, because a nested sig's
slot would capture an outer one: the parser rejects a body that mentions
an outer binder.  A nested sig's base keeps the enclosing scope.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..judgment import JudgmentStructure, require_boundary
from ..refiner import Refiner
from ..rule import Rule, clause_rule
from ..script import compile_script, parse_script
from ..state import Bot, Subgoals, TeleCons, TeleNil
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
    ctx_concat,
    fresh_name,
    subst_apply,
    term_sort,
    term_vars,
)

PROP = Sort("prop")
EXP = Sort("exp")

TOP_OP = Operator("top", (), PROP)
OR_OP = Operator("or", (PROP, PROP), PROP)
EQ_OP = Operator("eq", (EXP, EXP), PROP)
SIG_OP = Operator("sig", (PROP, PROP), PROP)

TT_OP = Operator("tt", (), EXP)
REFL_OP = Operator("refl", (), EXP)
INL_OP = Operator("inl", (EXP,), EXP)
PAIR_OP = Operator("pair", (EXP, EXP), EXP)

# the bound occurrence inside a sig body; '$' is outside the identifier
# alphabet, so user terms can never capture or mention it
SLOT = Var("$x", EXP)


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


def _replace_var(t: Term, name: str, replacement: Term) -> Term:
    match t:
        case Var(n, _):
            return replacement if n == name else t
        case App(op, args) if op == SIG_OP:
            a, b = args
            new_a = _replace_var(a, name, replacement)
            # the inner slot shadows: never rewrite "$x" under another sig
            new_b = b if name == SLOT.name else _replace_var(b, name, replacement)
            return App(op, (new_a, new_b))
        case App(op, args):
            return App(op, tuple(_replace_var(a, name, replacement) for a in args))
    raise TheoryError(f"not a term: {t!r}")


def slot_extend(ctx: Context) -> Context:
    entries = tuple(e for e in ctx.entries if e[0] != SLOT.name)
    return Context(entries + ((SLOT.name, EXP),))


def _slot_subst(s: Substitution) -> Substitution:
    """Push a substitution under a sig binder, fixing the slot."""
    kept = tuple(
        (t, e)
        for t, e in zip(s.terms, s.target.entries)
        if e[0] != SLOT.name
    )
    # every substituent is already checked over s.source, and the slot
    # extension keeps every entry of s.source but the slot, which it re-adds
    return Substitution._trusted(
        slot_extend(s.source),
        Context(tuple(e for _, e in kept) + ((SLOT.name, EXP),)),
        tuple(t for t, _ in kept) + (SLOT,),
    )


def check_prop(ctx: Context, t: Term) -> None:
    match t:
        case Var(_, _):
            check_term(ctx, t)
        case App(op, (a, b)) if op == SIG_OP:
            check_prop(ctx, a)
            check_prop(slot_extend(ctx), b)
        case App(op, args):
            for arg, sort in zip(args, op.arg_sorts):
                if sort == PROP:
                    check_prop(ctx, arg)
                else:
                    check_term(ctx, arg)
        case _:
            raise TheoryError(f"not a term: {t!r}")


def subst_prop(t: Term, s: Substitution) -> Term:
    match t:
        case Var(_, _):
            return subst_apply(t, s)
        case App(op, (a, b)) if op == SIG_OP:
            return App(op, (subst_prop(a, s), subst_prop(b, _slot_subst(s))))
        case App(op, args):
            return App(
                op,
                tuple(
                    subst_prop(a, s) if srt == PROP else subst_apply(a, s)
                    for a, srt in zip(args, op.arg_sorts)
                ),
            )
    raise TheoryError(f"not a term: {t!r}")


@dataclass(frozen=True)
class TruthGoal:
    context: Context
    prop: Term


TRUTH_OUTPUT = Context((("e", EXP),))


class DepStructure(JudgmentStructure):
    def check(self, judgment) -> None:
        match judgment:
            case TruthGoal(ctx, prop):
                check_prop(ctx, prop)
                if term_sort(prop) != PROP:
                    raise UnsortedTerm("truth goals are about propositions")
            case _:
                raise TheoryError(f"unknown judgment: {judgment!r}")

    def subst(self, judgment, s: Substitution):
        require_boundary(judgment, s)
        match judgment:
            case TruthGoal(_, prop):
                return TruthGoal(s.source, subst_prop(prop, s))
        raise TheoryError(f"unknown judgment: {judgment!r}")

    def output(self, judgment) -> Context:
        return TRUTH_OUTPUT

    def render(self, judgment) -> str:
        return f"true {render_prop(judgment.prop)}"


def render_prop(t: Term) -> str:
    match t:
        case Var(name, _):
            return name
        case App(op, ()) :
            return op.name
        case App(op, (a, b)) if op == SIG_OP:
            name = fresh_name("x", term_vars(b))
            body = _replace_var(b, SLOT.name, Var(name, EXP))
            return f"sig({name}. {render_prop(body)}, {render_prop(a)})"
        case App(op, args):
            parts = ", ".join(
                render_prop(a) if srt == PROP else render_exp(a)
                for a, srt in zip(args, op.arg_sorts)
            )
            return f"{op.name}({parts})"
    raise TheoryError(f"not a proposition: {t!r}")


def render_exp(t: Term) -> str:
    match t:
        case Var(name, _):
            return name
        case App(op, ()):
            return op.name
        case App(op, args):
            return f"{op.name}({', '.join(render_exp(a) for a in args)})"
    raise TheoryError(f"not an expression: {t!r}")


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
    name = NameSupply(ctx.names).fresh("x")
    flat = ctx_concat(ctx, Context(((name, EXP),)))
    tele = TeleCons((name,), TruthGoal(ctx, left), TeleNil(flat))
    validation = Substitution(flat, TRUTH_OUTPUT, (inl(Var(name, EXP)),))
    return Subgoals(tele, validation)


def _eq_refl_sides_equal(ctx: Context, g) -> bool:
    if not _prop_is(EQ_OP)(ctx, g):
        return False
    a, b = g.prop.args
    return a == b


def _eq_refl_open(ctx: Context, g) -> bool:
    if not _prop_is(EQ_OP)(ctx, g):
        return False
    a, b = g.prop.args
    return bool(term_vars(a) | term_vars(b))


def _sig_i_build(ctx: Context, g: TruthGoal) -> Subgoals:
    a, b = g.prop.args
    scope = NameSupply(ctx.names)
    m = scope.fresh("m")
    n = scope.fresh("n")
    ctx_m = ctx_concat(ctx, Context(((m, EXP),)))
    flat = ctx_concat(ctx_m, Context(((n, EXP),)))
    open_slot = Substitution(
        ctx_m,
        slot_extend(ctx),
        tuple(Var(nm, srt) for nm, srt in ctx.entries) + (Var(m, EXP),),
    )
    body = subst_prop(b, open_slot)
    tele = TeleCons(
        (m,),
        TruthGoal(ctx, a),
        TeleCons((n,), TruthGoal(ctx_m, body), TeleNil(flat)),
    )
    validation = Substitution(
        flat, TRUTH_OUTPUT, (pair(Var(m, EXP), Var(n, EXP)),)
    )
    return Subgoals(tele, validation)


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


def _compile(text: str) -> Tactic:
    lookup = Refiner(STRUCTURE, RULES).lookup
    return compile_script(STRUCTURE, lookup, parse_script(text))


def aux_tactic() -> Tactic:
    return _compile(_STEP)


def auto() -> Tactic:
    return _compile(AUTO_SCRIPT)


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
            ev_b = prove_oracle(_replace_var(b, SLOT.name, ev_a))
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
            if not binder.text.isidentifier():
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
