"""Dependent logic: truth goals whose evidence feeds later goals.

Propositions include a dependent pair former sig(x. B, A) whose body B
may mention the evidence x of A.  The sig operator declares that its
body binds the slot variable SLOT, which user identifiers cannot collide
with; only rendering gives it a printable name.  So the term layer does
all the binding: substitution passes the binder by, `instantiate` opens
a body with a term, `check_term` checks a body with its slot in scope,
and a sig whose body mentions only its slot is closed.

Goals are read and printed from the operator table: one reader reads
each form as name(arg, ...), each argument at the sort its operator
declares, and `render_term`'s one loop prints it.  sig is the one
special form, sig(x. B, A), whose binder is read only as an expression.

A sig body's scope holds only its own binder, because a nested sig's
slot would capture an outer one: the parser rejects a body that mentions
an outer binder.  A nested sig's base keeps the enclosing scope.  The
expression forms tt, refl, inl and pair are reserved: none is a binder.

A positional goal spells each level's witness out again in the level
above, so its text grows quadratically in its levels while its distinct
expressions grow linearly.  The reader keeps each expression form with
arguments it reads on the cursor (`Cursor.recall`), and where the same
words come again under the same binder it hands that term back and
skips them.  The binder is part of the key because words that read as
a term under one binder may not read under another: `x` is the slot
inside `sig(x. …)` and an unbound name outside it.  The reader also
counts the forms open around each one, so that a term is never handed
back deeper than it was read: where reading the words would recurse too
deep, they are read, and the goal is a usage error as it was before.
"""

from __future__ import annotations

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
    NameSupply,
    Operator,
    Sort,
    Substitution,
    Term,
    TheoryError,
    UnsortedTerm,
    Var,
    _slotted,
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


@_slotted
@dataclass(frozen=True, slots=True)
class TruthGoal:
    context: Context
    prop: Term


TRUTH_OUTPUT = Context((("e", EXP),))


class DepStructure(JudgmentStructure):
    # each method dispatches on the judgment's exact class, as arith's do

    def check(self, judgment) -> None:
        if judgment.__class__ is not TruthGoal:
            raise TheoryError(f"unknown judgment: {judgment!r}")
        check_term(judgment.context, judgment.prop)
        if term_sort(judgment.prop) != PROP:
            raise UnsortedTerm("truth goals are about propositions")

    def subst(self, judgment, s: Substitution):
        require_boundary(judgment, s)
        if judgment.__class__ is not TruthGoal:
            raise TheoryError(f"unknown judgment: {judgment!r}")
        return TruthGoal(s.source, subst_apply(judgment.prop, s))

    def output(self, judgment) -> Context:
        return TRUTH_OUTPUT

    def render(self, judgment) -> str:
        return f"true {render_prop(judgment.prop)}"


def _sig_form(t: App) -> tuple:
    # sig(x. body, base): the binder named fresh against the body
    base, body = t.args
    name = NameSupply(term_vars(body)).fresh("x")
    body = instantiate(body, SLOT, Var(name, EXP))
    return ("sig(", name, ". ", body, ", ", base, ")")


_NOTATION = {SIG_OP: _sig_form}


def render_prop(t: Term) -> str:
    return render_term(t, _NOTATION)


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

# the goals each rule can answer with anything but FAIL (rule.Heads)
HEADS: dict[str, Heads] = {
    "top_i": {TruthGoal: ("prop", (TOP_OP,))},
    "or_i1": {TruthGoal: ("prop", (OR_OP,))},
    "eq_refl": {TruthGoal: ("prop", (EQ_OP,))},
    "sig_i": {TruthGoal: ("prop", (SIG_OP,))},
}

_STEP = "top_i | or_i1 | eq_refl | sig_i"
AUTO_SCRIPT = f"id; all({_STEP})*"


def auto() -> Tactic:
    return compile_text(STRUCTURE, RULES, AUTO_SCRIPT, HEADS)


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
    cur = Cursor(text, "(),.")
    if not cur.take("true"):
        raise cur.error("expected: true <proposition>")
    prop = _parse(cur, _PROPS, None, 0)
    cur.expect_end()
    return TruthGoal(Context(), prop)


# the forms of each sort by name; the expression forms are reserved
_PROPS = {op.name: op for op in (TOP_OP, OR_OP, EQ_OP, SIG_OP)}
_EXPS = {op.name: op for op in (TT_OP, REFL_OP, INL_OP, PAIR_OP)}
# per operator, the table each argument is read from
_ARG_FORMS = {
    op: tuple(_PROPS if sort == PROP else _EXPS for sort in op.arg_sorts)
    for op in (*_PROPS.values(), *_EXPS.values())
}


def _parse(
    cur: Cursor, forms: dict[str, Operator], bound: str | None, depth: int
) -> Term:
    """A form of the table `forms`: its name, then its arguments in
    parentheses, each read at the sort its operator declares.  `bound`
    names the binder of the innermost sig body, read where an
    expression is expected; `depth` counts the forms open around this
    one."""
    word = cur.expect("ident")
    op = forms.get(word)
    if op is None:
        if forms is _PROPS:
            raise cur.error(f"unknown proposition form {word!r}", cur.pos - 1)
        if word != bound:
            raise cur.error(f"unknown or unbound name {word!r}", cur.pos - 1)
        return SLOT
    depth += 1
    if op is SIG_OP:
        # sig(x. body, base): a body sees only its own binder
        cur.expect("(")
        binder = cur.expect("ident")
        if not binder.isidentifier() or binder in _EXPS:
            raise cur.error(f"bad binder {binder!r}", cur.pos - 1)
        cur.expect(".")
        body = _parse(cur, _PROPS, binder, depth)
        cur.expect(",")
        base = _parse(cur, _PROPS, bound, depth)
        cur.expect(")")
        return App(SIG_OP, (base, body))
    arg_forms = _ARG_FORMS[op]
    if not arg_forms:
        return App(op, ())
    # an expression spelled out again under the same binder is read once
    memo = forms is _EXPS
    if memo:
        term = cur.recall((bound, op), depth)
        if term is not None:
            return term
    cur.expect("(")
    args = [_parse(cur, arg_forms[0], bound, depth)]
    for forms in arg_forms[1:]:
        cur.expect(",")
        args.append(_parse(cur, forms, bound, depth))
    cur.expect(")")
    term = App(op, tuple(args))
    if memo:
        cur.remember(term)
    return term
