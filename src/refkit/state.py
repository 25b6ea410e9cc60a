"""Proof states: telescopes of dependent subgoals plus a validation.

A state over a context either fails, is undetermined (Bot), or carries a
telescope of subgoals whose binders scope over later goals, together with
a substitution saying how the evidence of the subgoals assembles into
evidence for the overall target context.

States over a judgment structure J themselves form a judgment structure
(StateStructure), which is what makes multitactics typecheck: a tactic
over StateStructure(J) rewrites whole states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Union

from .judgment import JudgmentStructure
from .theory import (
    Context,
    ContextMismatch,
    NameSupply,
    Substitution,
    Term,
    TheoryError,
    Var,
    ctx_concat,
    render_term,
    subst_apply,
    subst_compose,
)


@dataclass(frozen=True)
class TeleNil:
    context: Context


@dataclass(frozen=True)
class TeleCons:
    """One subgoal binding `names` for its outputs over the rest."""

    names: tuple[str, ...]
    goal: Any
    rest: "Telescope"


Telescope = Union[TeleNil, TeleCons]


@dataclass(frozen=True)
class Subgoals:
    telescope: Telescope
    validation: Substitution

    @property
    def context(self) -> Context:
        return tele_context(self.telescope)

    @property
    def target(self) -> Context:
        return self.validation.target


@dataclass(frozen=True)
class Fail:
    context: Context
    target: Context


@dataclass(frozen=True)
class Bot:
    context: Context
    target: Context


ProofState = Union[Subgoals, Fail, Bot]


def tele_context(tele: Telescope) -> Context:
    match tele:
        case TeleNil(ctx):
            return ctx
        case TeleCons(_, goal, _):
            return goal.context
    raise TheoryError(f"not a telescope: {tele!r}")


def tele_goals(tele: Telescope) -> list[tuple[tuple[str, ...], Any]]:
    return _tele_parts(tele)[0]


def _tele_parts(tele: Telescope) -> tuple[list[tuple[tuple[str, ...], Any]], TeleNil]:
    """The entries of a telescope, in order, and its closing TeleNil."""
    goals = []
    while isinstance(tele, TeleCons):
        goals.append((tele.names, tele.goal))
        tele = tele.rest
    if not isinstance(tele, TeleNil):
        raise TheoryError(f"not a telescope: {tele!r}")
    return goals, tele


def _tele_from(goals: list[tuple[tuple[str, ...], Any]], tail: Telescope) -> Telescope:
    """The telescope of the given entries, in order, in front of tail."""
    for names, goal in reversed(goals):
        tail = TeleCons(names, goal, tail)
    return tail


def tele_concat(front: Telescope, back: Telescope) -> Telescope:
    goals, end = _tele_parts(front)
    if tele_context(back) != end.context:
        raise ContextMismatch("telescope halves do not meet")
    return _tele_from(goals, back)


def check_state(structure: JudgmentStructure, state: ProofState) -> None:
    """Check contexts, binders, and the validation boundary of a state."""
    match state:
        case Fail(_, _) | Bot(_, _):
            return
        case Subgoals(tele, validation):
            ambient = tele_context(tele)
            walk = tele
            expected = ambient
            while isinstance(walk, TeleCons):
                structure.check(walk.goal)
                if walk.goal.context != expected:
                    raise ContextMismatch("subgoal context out of place")
                output = structure.output(walk.goal)
                if len(walk.names) != len(output.entries):
                    raise ContextMismatch("binder arity mismatch")
                binder = tuple(
                    (n, s) for n, (_, s) in zip(walk.names, output.entries)
                )
                expected = ctx_concat(expected, Context(binder))
                walk = walk.rest
            if walk.context != expected:
                raise ContextMismatch("telescope tail context out of place")
            if validation.source != expected:
                raise ContextMismatch("validation source is not the flat context")
            return
    raise TheoryError(f"not a proof state: {state!r}")


def state_unit(structure: JudgmentStructure, goal: Any) -> Subgoals:
    """One-subgoal state whose validation hands the outputs straight back."""
    output = structure.output(goal)
    b = TeleBuilder(structure, goal.context)
    outputs = b.push(goal, output.names)
    return b.close(Substitution(b.prefix, output, outputs))


def wk_state(
    structure: JudgmentStructure, front: Telescope, state: ProofState
) -> ProofState:
    """Prepend the goals of `front` to a state living under front's binders."""
    ambient = tele_context(front)
    match state:
        case Fail(_, target):
            return Fail(ambient, target)
        case Bot(_, target):
            return Bot(ambient, target)
        case Subgoals(tele, validation):
            return Subgoals(tele_concat(front, tele), validation)
    raise TheoryError(f"not a proof state: {state!r}")


def state_subst(
    structure: JudgmentStructure, state: ProofState, s: Substitution
) -> ProofState:
    """Reindex a whole state from s.target over to s.source.

    Binders are freshened against s.source and the binders before them.
    """
    if state.context != s.target:
        raise ContextMismatch("substitution target does not match the state")
    match state:
        case Fail(_, target):
            return Fail(s.source, target)
        case Bot(_, target):
            return Bot(s.source, target)
        case Subgoals(tele, validation):
            b = TeleBuilder(structure, s.source, dict(zip(s.target.names, s.terms)))
            while isinstance(tele, TeleCons):
                b.splice(tele.goal, tele.names, tele.names)
                tele = tele.rest
            return b.close(subst_compose(b.reindexing(tele.context), validation))
    raise TheoryError(f"not a proof state: {state!r}")


def state_map(f: Callable[[Any], Any], state: ProofState) -> ProofState:
    """Replace each subgoal by f(goal), keeping binders and validation.

    The replacement must preserve the goal's context and output context;
    nothing here re-checks that, the caller owns it.
    """
    match state:
        case Fail(_, _) | Bot(_, _):
            return state
        case Subgoals(tele, validation):
            goals, end = _tele_parts(tele)
            mapped = [(names, f(goal)) for names, goal in goals]
            return Subgoals(_tele_from(mapped, end), validation)
    raise TheoryError(f"not a proof state: {state!r}")


def tele_obstruction(
    structure: JudgmentStructure, tele: Telescope
) -> str | None:
    """The kind of the leftmost absorbing goal, scanning into states."""
    while isinstance(tele, TeleCons):
        found = structure.obstruction(tele.goal)
        if found is not None:
            return found
        tele = tele.rest
    return None


def state_obstruction(
    structure: JudgmentStructure, state: ProofState
) -> str | None:
    match state:
        case Fail(_, _):
            return "fail"
        case Bot(_, _):
            return "bot"
        case Subgoals(tele, _):
            return tele_obstruction(structure, tele)
    raise TheoryError(f"not a proof state: {state!r}")


def state_mul(
    structure: JudgmentStructure,
    outer: ProofState,
    before: Telescope | None = None,
) -> ProofState:
    """Flatten a state whose subgoals are themselves states.

    A failed or undetermined inner state poisons the whole result; an
    inner Subgoals splices its telescope in place of the original entry,
    with the inner validation substituted through the remainder.  When
    the remainder collapses, an absorbing goal buried earlier in the
    spliced prefix takes precedence, so that flattening nested layers
    reports the dependency-leftmost obstruction no matter which layer is
    flattened first.

    `before` may give the goals the outer entries answer, one for one
    under the same binders.  A Fail or Bot entry then refuses its goal
    instead of poisoning the result: the goal stays in place, reindexed,
    under fresh binders named after its outputs, just as if the entry
    had answered with the goal's unit state.  If the binders of `before`
    do not line up with the outer entries, it is ignored.
    """
    match outer:
        case Fail(_, _) | Bot(_, _):
            return outer
        case Subgoals(tele, validation):
            if before is not None and not _same_binders(tele, before):
                before = None
            return _mul_tele(structure, tele, validation, before)
    raise TheoryError(f"not a proof state: {outer!r}")


def _same_binders(a: Telescope, b: Telescope) -> bool:
    while isinstance(a, TeleCons) and isinstance(b, TeleCons):
        if a.names != b.names:
            return False
        a, b = a.rest, b.rest
    return isinstance(a, TeleNil) and isinstance(b, TeleNil)


class TeleBuilder:
    """A telescope built entry by entry over a growing flat context.

    prefix is the flat context so far.  A new binder is named after its
    base by NameSupply.fresh, so the prefix does not bind it yet, and has
    the sort of the output it stands for.  A telescope moved onto a new
    context also keeps image, which sends each old name in scope to its
    term over the prefix, so every moved goal is reindexed once.
    """

    def __init__(
        self,
        structure: JudgmentStructure,
        prefix: Context,
        image: dict[str, Term] | None = None,
    ):
        self.structure = structure
        self.prefix = prefix
        self.image = {} if image is None else image
        self.scope = NameSupply(prefix.names)
        self.entries: list[tuple[tuple[str, ...], Any]] = []

    def push(self, goal: Any, bases: tuple[str, ...]) -> tuple[Var, ...]:
        """Append goal, which lives over the prefix, under fresh binders
        named after bases; the variables of the new binders."""
        outputs = self.structure.output(goal).entries
        binder = tuple(
            (self.scope.fresh(base), sort)
            for base, (_, sort) in zip(bases, outputs, strict=True)
        )
        self.entries.append((tuple([name for name, _ in binder]), goal))
        self.prefix = Context._extended(self.prefix, binder)
        return tuple([Var(name, sort) for name, sort in binder])

    def splice(self, goal: Any, bases: tuple[str, ...], binds: tuple[str, ...]) -> None:
        """Append goal, reindexed onto the prefix, under fresh binders
        named after bases that stand for the old names binds from here on."""
        moved = self.structure.subst(goal, self.reindexing(goal.context))
        self.image.update(zip(binds, self.push(moved, bases)))

    def reindexing(self, target: Context) -> Substitution:
        """Sends target, the old names in scope in any order, onto the prefix."""
        return _reindexing(self.prefix, target, self.image)

    def close(self, validation: Substitution) -> Subgoals:
        """The state of the goals pushed, with a validation over the prefix."""
        return Subgoals(_tele_from(self.entries, TeleNil(self.prefix)), validation)


def _mul_tele(
    structure: JudgmentStructure,
    tele: Telescope,
    validation: Substitution,
    before: Telescope | None,
) -> ProofState:
    if isinstance(tele, TeleNil):
        return Subgoals(tele, validation)
    root = tele_context(tele)
    image: dict[str, Term] = {name: Var(name, sort) for name, sort in root.entries}
    b = TeleBuilder(structure, root, image)
    walk = tele
    while isinstance(walk, TeleCons):
        head = walk.goal
        if isinstance(head, Subgoals):
            inner = head.telescope
            while isinstance(inner, TeleCons):
                b.splice(inner.goal, inner.names, inner.names)
                inner = inner.rest
            # walk.names bind head's outputs over the rest; from here on
            # they stand for what the inner validation produced, and the
            # inner binders leave scope
            reindex = b.reindexing(head.validation.source)
            outputs = [subst_apply(t, reindex) for t in head.validation.terms]
            for name in inner.context.names[len(head.context):]:
                del image[name]
            image.update(zip(walk.names, outputs))
        elif not isinstance(head, (Fail, Bot)):
            raise TheoryError(f"subgoal is not a proof state: {head!r}")
        elif before is not None:
            # a refusal leaves the goal standing, as its unit state would
            goal = before.goal
            b.splice(goal, structure.output(goal).names, walk.names)
        else:
            # an absorbing goal already spliced in sits earlier in
            # dependency order, so its kind wins over the collapse
            kind = "fail" if isinstance(head, Fail) else "bot"
            for _, goal in b.entries:
                found = structure.obstruction(goal)
                if found is not None:
                    kind = found
                    break
            wrap = Fail if kind == "fail" else Bot
            return wrap(root, validation.target)
        walk = walk.rest
        if before is not None:
            before = before.rest
    return b.close(subst_compose(b.reindexing(walk.context), validation))


def _reindexing(
    source: Context, target: Context, image: dict[str, Term]
) -> Substitution:
    # image covers exactly the old names in scope, so a target of the
    # same length all of whose names it covers is that scope
    try:
        terms = tuple(map(image.__getitem__, target.names))
    except KeyError as err:
        raise ContextMismatch(
            f"variable {err.args[0]!r} is not in the flattened context"
        ) from None
    if len(terms) != len(image):
        raise ContextMismatch("subgoal context out of place in flattening")
    return Substitution._trusted(source, target, terms)


def state_alpha_eq(
    structure: JudgmentStructure, a: ProofState, b: ProofState
) -> bool:
    """Equality of states up to renaming of telescope binders.

    Goal counts are compared before any goal is reindexed: two states
    with different numbers of goals are never equal.
    """
    match a, b:
        case Fail(ca, ta), Fail(cb, tb):
            return ca == cb and ta == tb
        case Bot(ca, ta), Bot(cb, tb):
            return ca == cb and ta == tb
        case Subgoals(ta, va), Subgoals(tb, vb):
            if len(tele_goals(ta)) != len(tele_goals(tb)):
                return False
            if a.context != b.context or va.target != vb.target:
                return False
            # b is renamed onto a, binder by binder: image sends each of
            # b's names in scope to a's
            image: dict[str, Term] = {
                name: Var(name, sort) for name, sort in b.context.entries
            }
            while isinstance(ta, TeleCons) and isinstance(tb, TeleCons):
                if len(ta.names) != len(tb.names):
                    return False
                sorts = tuple(s for _, s in structure.output(ta.goal).entries)
                if sorts != tuple(s for _, s in structure.output(tb.goal).entries):
                    return False
                renamed = _reindexing(ta.goal.context, tb.goal.context, image)
                if not structure.alpha_eq(ta.goal, structure.subst(tb.goal, renamed)):
                    return False
                for old, new, sort in zip(tb.names, ta.names, sorts):
                    image[old] = Var(new, sort)
                ta, tb = ta.rest, tb.rest
            if not (isinstance(ta, TeleNil) and isinstance(tb, TeleNil)):
                return False
            return va == subst_compose(_reindexing(ta.context, tb.context, image), vb)
    return False


def state_approx(
    structure: JudgmentStructure, a: ProofState, b: ProofState
) -> bool:
    """Information order: Bot is below every state at the same boundary."""
    if isinstance(a, Bot):
        return a.context == b.context and a.target == b.target
    return state_alpha_eq(structure, a, b)


def pretty_state(structure: JudgmentStructure, state: ProofState) -> str:
    match state:
        case Fail(_, _):
            return "FAIL"
        case Bot(_, _):
            return "BOT"
        case Subgoals(tele, validation):
            lines = []
            for names, goal in tele_goals(tele):
                if len(names) == 1:
                    binder = names[0]
                else:
                    binder = f"[{', '.join(names)}]"
                lines.append(f"{binder} : {structure.render(goal)}.")
            terms = ", ".join(render_term(t) for t in validation.terms)
            lines.append(f"▹ [{terms}]")
            return "\n".join(lines)
    raise TheoryError(f"not a proof state: {state!r}")


class StateStructure(JudgmentStructure):
    """States over a judgment structure, seen as judgments themselves."""

    def __init__(self, base: JudgmentStructure):
        self.base = base

    def check(self, judgment: ProofState) -> None:
        check_state(self.base, judgment)

    def subst(self, judgment: ProofState, s: Substitution) -> ProofState:
        return state_subst(self.base, judgment, s)

    def output(self, judgment: ProofState) -> Context:
        return judgment.target

    def approx(self, a: ProofState, b: ProofState) -> bool:
        return state_approx(self.base, a, b)

    def alpha_eq(self, a: ProofState, b: ProofState) -> bool:
        return state_alpha_eq(self.base, a, b)

    def obstruction(self, judgment: ProofState) -> str | None:
        return state_obstruction(self.base, judgment)

    def render(self, judgment: ProofState) -> str:
        return pretty_state(self.base, judgment)
