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
from typing import Any, Callable, Sequence, Union

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


@dataclass(frozen=True, slots=True)
class TeleNil:
    context: Context


@dataclass(frozen=True, slots=True)
class TeleCons:
    """One subgoal binding `names` for its outputs over the rest."""

    names: tuple[str, ...]
    goal: Any
    rest: "Telescope"

    def __eq__(self, other: object) -> bool:
        # (names, goal, rest) compared entry by entry without recursion,
        # so long telescopes compare
        if other.__class__ is not TeleCons:
            return NotImplemented
        a, b = self, other
        while a.__class__ is TeleCons is b.__class__:
            if a is b:
                return True
            if a.names != b.names or a.goal != b.goal:
                return False
            a, b = a.rest, b.rest
        return a == b

    def __hash__(self) -> int:
        # hashed entry by entry, as __eq__ compares
        h, tele = 0, self
        while tele.__class__ is TeleCons:
            h = hash((h, tele.names, tele.goal))
            tele = tele.rest
        return hash((h, tele))


Telescope = Union[TeleNil, TeleCons]


@dataclass(frozen=True, slots=True)
class Subgoals:
    telescope: Telescope
    validation: Substitution

    @property
    def context(self) -> Context:
        return tele_context(self.telescope)

    @property
    def target(self) -> Context:
        return self.validation.target


@dataclass(frozen=True, slots=True)
class Fail:
    context: Context
    target: Context


@dataclass(frozen=True, slots=True)
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
    term over the prefix; a moved goal is reindexed by reading it.

    The names image covers are those of checked, the old context last
    checked, followed by since, the names image took on after it.  A goal
    whose context is checked followed by exactly since is then in scope
    without comparing every name (`Context._extends`).
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
        self.checked: Context | None = None
        self.since: list[str] = []
        self.entries: list[tuple[tuple[str, ...], Any]] = []

    def push(self, goal: Any, bases: tuple[str, ...]) -> tuple[Var, ...]:
        """Append goal, which lives over the prefix, under fresh binders
        named after bases; the variables of the new binders."""
        outputs = self.structure.output(goal).entries
        fresh = self.scope.fresh
        prefix = self.prefix
        variables: list[Var] = []
        # scope holds every name of the prefix, so fresh names are new to it
        for base, (_, sort) in zip(bases, outputs, strict=True):
            name = fresh(base)
            prefix = prefix._snoc(name, sort)
            variables.append(Var(name, sort))
        self.entries.append((tuple([v.name for v in variables]), goal))
        self.prefix = prefix
        return tuple(variables)

    def splice(
        self, goal: Any, bases: tuple[str, ...], binds: tuple[str, ...]
    ) -> None:
        """Append goal, reindexed onto the prefix, under fresh binders
        named after bases that stand for the old names binds from here on."""
        moved = self.structure.subst(goal, self.reindexing(goal.context))
        self._bind(binds, self.push(moved, bases))

    def stand(self, goal: Any, binds: tuple[str, ...]) -> None:
        """Append goal as its unit state would splice in: under fresh
        binders named after its outputs, standing for binds."""
        self.splice(goal, self.structure.output(goal).names, binds)

    def _bind(self, names: Sequence[str], terms: Sequence[Term]) -> None:
        """Send the old names to terms over the prefix from here on."""
        self.image.update(zip(names, terms))
        self.since.extend(names)

    def _unbind(self, outer: Context, names: Sequence[str]) -> None:
        """Take the old names out of image, which should leave outer's."""
        image = self.image
        for name in names:
            del image[name]
        # if the last context checked is outer followed by names, outer is
        # what is left; if that cannot be told cheaply, the next check
        # compares every name
        last = self.checked
        if last is not None and not self.since and last._extends(outer, names):
            self.checked = outer
        else:
            self.checked = None
        self.since = []

    def reindexing(self, target: Context) -> "_Reindexing":
        """Sends target, the old names in scope in any order, onto the prefix."""
        checked = self.checked
        if checked is None or not target._extends(checked, self.since):
            _check_scope(self.image, target)
        self.checked, self.since = target, []
        return _Reindexing(self.prefix, target, self.image)

    def rejoin(self, answer: Any, end: Context, names: tuple[str, ...]) -> None:
        """After the goals of answer, whose telescope ends at end: its
        binders leave scope, and names, the binders of its entry, stand
        for what its validation produced."""
        reindex = self.reindexing(answer.validation.source)
        outputs = [subst_apply(t, reindex) for t in answer.validation.terms]
        outer = answer.context
        self._unbind(outer, end._names_from(len(outer)))
        self._bind(names, outputs)

    @property
    def telescope(self) -> Telescope:
        """The telescope of the goals pushed, over the prefix."""
        return _tele_from(self.entries, TeleNil(self.prefix))

    def close(self, validation: Substitution) -> Subgoals:
        """The state of the goals pushed, with a validation over the prefix."""
        return Subgoals(self.telescope, validation)


def _in_place(entry: TeleCons, answer: ProofState) -> bool:
    """Whether answer discharges entry's goal by evidence over its context,
    which entry's binders extend to the next entry's: the scope checks that
    TeleBuilder.rejoin and the next reindexing make of answer, so where they
    hold, a sweep's map of names is the flattening's (tactic._run)."""
    if answer.__class__ is not Subgoals or answer.telescope.__class__ is not TeleNil:
        return False
    ctx, rest = entry.goal.context, entry.rest
    after = rest.goal.context if rest.__class__ is TeleCons else rest.context
    return answer.validation.source == ctx and after._extends(ctx, entry.names)


def _mul_tele(
    structure: JudgmentStructure,
    tele: Telescope,
    validation: Substitution,
    before: Telescope | None,
) -> ProofState:
    """Flatten tele, validation, a state of answers, in one walk."""
    if isinstance(tele, TeleNil):
        return Subgoals(tele, validation)
    root = tele_context(tele)
    b = TeleBuilder(structure, root, {name: Var(name, sort) for name, sort in root.entries})
    while isinstance(tele, TeleCons):
        head = tele.goal
        if isinstance(head, Subgoals):
            inner = head.telescope
            while isinstance(inner, TeleCons):
                b.splice(inner.goal, inner.names, inner.names)
                inner = inner.rest
            b.rejoin(head, inner.context, tele.names)
        elif not isinstance(head, (Fail, Bot)):
            raise TheoryError(f"subgoal is not a proof state: {head!r}")
        elif before is not None:
            # a refusal leaves the goal standing
            b.stand(before.goal, tele.names)
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
        tele = tele.rest
        if before is not None:
            before = before.rest
    return b.close(subst_compose(b.reindexing(tele.context), validation))


def state_spliced(structure: JudgmentStructure, answer: Subgoals, steps: Any) -> Subgoals:
    """The state a depth-first pass ends on, whose tactic answered its
    goal with answer: steps, the pass's record, the last at its head, of
    entries (_, step), spliced in one loop.  A step is (goal, names) for
    a goal that stands, as its unit state would, under binders for names,
    or (answer, end, names) after the goals of an answer whose telescope
    ends at end and whose entry in the level above binds names.
    Flattening is associative, so this is the state that flattening the
    answers level by level gives."""
    order = []
    while steps is not None:
        (_, step), steps = steps
        order.append(step)
    root, tele = answer.context, answer.telescope
    while isinstance(tele, TeleCons):
        tele = tele.rest
    b = TeleBuilder(structure, root, {name: Var(name, sort) for name, sort in root.entries})
    for step in reversed(order):
        if len(step) == 2:
            b.stand(*step)
        else:
            b.rejoin(*step)
    return b.close(subst_compose(b.reindexing(tele.context), answer.validation))


def _check_scope(image: dict[str, Term], target: Context) -> None:
    """Check that target holds exactly the names image covers."""
    if image.keys() != set(target.names):
        for name in target.names:
            if name not in image:
                raise ContextMismatch(
                    f"variable {name!r} is not in the flattened context"
                )
        raise ContextMismatch("subgoal context out of place in flattening")


class _Reindexing:
    """The substitution sending target, the old names in scope in any
    order, onto source by reading image, a running map of a move.

    Building it checks nothing: the caller makes sure that image covers
    the names of target (`_check_scope`).  A term pays one lookup per
    free variable, so moving a goal costs its own variables, not its
    context.  It reads image live, so lookups and terms hold only until
    image next changes.
    """

    __slots__ = ("source", "target", "lookup")

    def __init__(self, source: Context, target: Context, image: dict[str, Term]):
        self.source = source
        self.target = target
        self.lookup = image.get

    @property
    def terms(self) -> tuple[Term, ...]:
        return tuple(map(self.lookup, self.target.names))


def _renaming(
    structure: JudgmentStructure, ta: Telescope, tb: Telescope
) -> _Reindexing | None:
    """The move that renames tb, binder by binder, onto ta, a telescope
    over the same context, if that makes them equal, else None; it sends
    the context at tb's end onto ta's.  The goal counts are compared, by
    walking the two side by side, before any goal is reindexed."""
    wa, wb = ta, tb
    while isinstance(wa, TeleCons) and isinstance(wb, TeleCons):
        wa, wb = wa.rest, wb.rest
    if not (isinstance(wa, TeleNil) and isinstance(wb, TeleNil)):
        return None
    # image sends each of tb's names in scope to ta's
    image: dict[str, Term] = {n: Var(n, sort) for n, sort in tele_context(tb).entries}
    while isinstance(ta, TeleCons):
        if len(ta.names) != len(tb.names):
            return None
        sorts = tuple(s for _, s in structure.output(ta.goal).entries)
        if sorts != tuple(s for _, s in structure.output(tb.goal).entries):
            return None
        _check_scope(image, tb.goal.context)
        renamed = _Reindexing(ta.goal.context, tb.goal.context, image)
        if not structure.alpha_eq(ta.goal, structure.subst(tb.goal, renamed)):
            return None
        for old, new, sort in zip(tb.names, ta.names, sorts):
            image[old] = Var(new, sort)
        ta, tb = ta.rest, tb.rest
    _check_scope(image, tb.context)
    return _Reindexing(ta.context, tb.context, image)


def state_alpha_eq(
    structure: JudgmentStructure, a: ProofState, b: ProofState
) -> bool:
    """Equality of states up to renaming of telescope binders: the same
    boundary, telescopes equal up to a renaming (_renaming), and
    validations equal through it."""
    match a, b:
        case (Fail(ca, ta), Fail(cb, tb)) | (Bot(ca, ta), Bot(cb, tb)):
            return ca == cb and ta == tb
        case Subgoals(ta, va), Subgoals(tb, vb):
            if a.context != b.context or va.target != vb.target:
                return False
            move = _renaming(structure, ta, tb)
            return move is not None and va == subst_compose(move, vb)
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
