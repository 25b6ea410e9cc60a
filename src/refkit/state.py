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

from .judgment import JudgmentStructure, LabeledJudgment
from .theory import (
    Context,
    ContextMismatch,
    Sort,
    Substitution,
    TheoryError,
    Var,
    ctx_concat,
    fresh_name,
    render_term,
    subst_compose,
    subst_extend_binder,
    subst_identity,
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


def tele_entries(
    structure: JudgmentStructure, tele: Telescope
) -> tuple[tuple[str, Sort], ...]:
    """All binder entries of the telescope, in order."""
    out: list[tuple[str, Sort]] = []
    while isinstance(tele, TeleCons):
        output = structure.output(tele.goal)
        if len(tele.names) != len(output.entries):
            raise ContextMismatch(
                "binder names do not match the goal's output arity"
            )
        out.extend(
            (name, sort) for name, (_, sort) in zip(tele.names, output.entries)
        )
        tele = tele.rest
    return tuple(out)


def tele_goals(tele: Telescope) -> list[tuple[tuple[str, ...], Any]]:
    out = []
    while isinstance(tele, TeleCons):
        out.append((tele.names, tele.goal))
        tele = tele.rest
    return out


def tele_concat(front: Telescope, back: Telescope) -> Telescope:
    match front:
        case TeleNil(ctx):
            if tele_context(back) != ctx:
                raise ContextMismatch("telescope halves do not meet")
            return back
        case TeleCons(names, goal, rest):
            return TeleCons(names, goal, tele_concat(rest, back))
    raise TheoryError(f"not a telescope: {front!r}")


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
    ambient = goal.context
    output = structure.output(goal)
    taken = set(ambient.names)
    names = []
    for name, _ in output.entries:
        fresh = fresh_name(name, taken)
        taken.add(fresh)
        names.append(fresh)
    binder = tuple((n, s) for n, (_, s) in zip(names, output.entries))
    flat = ctx_concat(ambient, Context(binder))
    tele = TeleCons(tuple(names), goal, TeleNil(flat))
    validation = Substitution(
        flat, output, tuple(Var(n, s) for n, s in binder)
    )
    return Subgoals(tele, validation)


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


def tele_subst(
    structure: JudgmentStructure, tele: Telescope, s: Substitution
) -> tuple[Telescope, Substitution]:
    """Reindex a telescope along s, freshening binders against s.source.

    Returns the new telescope together with the extension of s to the
    full flat contexts, for composing onto the validation.
    """
    match tele:
        case TeleNil(_):
            return TeleNil(s.source), s
        case TeleCons(names, goal, rest):
            new_goal = structure.subst(goal, s)
            output = structure.output(goal)
            taken = set(s.source.names)
            fresh = []
            for name in names:
                picked = fresh_name(name, taken)
                taken.add(picked)
                fresh.append(picked)
            binder = tuple(
                (n, srt) for n, (_, srt) in zip(names, output.entries)
            )
            extended = subst_extend_binder(s, binder, tuple(fresh))
            new_rest, full = tele_subst(structure, rest, extended)
            return TeleCons(tuple(fresh), new_goal, new_rest), full
    raise TheoryError(f"not a telescope: {tele!r}")


def state_subst(
    structure: JudgmentStructure, state: ProofState, s: Substitution
) -> ProofState:
    """Reindex a whole state from s.target over to s.source."""
    if state.context != s.target:
        raise ContextMismatch("substitution target does not match the state")
    match state:
        case Fail(_, target):
            return Fail(s.source, target)
        case Bot(_, target):
            return Bot(s.source, target)
        case Subgoals(tele, validation):
            new_tele, full = tele_subst(structure, tele, s)
            return Subgoals(new_tele, subst_compose(full, validation))
    raise TheoryError(f"not a proof state: {state!r}")


def state_map(f: Callable[[Any], Any], state: ProofState) -> ProofState:
    """Replace each subgoal by f(goal), keeping binders and validation.

    The replacement must preserve the goal's context and output context;
    nothing here re-checks that, the caller owns it.
    """

    def go(tele: Telescope) -> Telescope:
        match tele:
            case TeleNil(_):
                return tele
            case TeleCons(names, goal, rest):
                return TeleCons(names, f(goal), go(rest))
        raise TheoryError(f"not a telescope: {tele!r}")

    match state:
        case Fail(_, _) | Bot(_, _):
            return state
        case Subgoals(tele, validation):
            return Subgoals(go(tele), validation)
    raise TheoryError(f"not a proof state: {state!r}")


def label_state(state: ProofState) -> ProofState:
    """Tag each subgoal with its position, left to right from zero."""
    counter = [0]

    def tag(goal: Any) -> LabeledJudgment:
        labeled = LabeledJudgment(goal, counter[0])
        counter[0] += 1
        return labeled

    return state_map(tag, state)


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


def state_mul(structure: JudgmentStructure, outer: ProofState) -> ProofState:
    """Flatten a state whose subgoals are themselves states.

    A failed or undetermined inner state poisons the whole result; an
    inner Subgoals splices its telescope in place of the original entry,
    with the inner validation substituted through the remainder.  When
    the remainder collapses, an absorbing goal buried earlier in the
    spliced prefix takes precedence, so that flattening nested layers
    reports the dependency-leftmost obstruction no matter which layer is
    flattened first.
    """
    match outer:
        case Fail(_, _) | Bot(_, _):
            return outer
        case Subgoals(tele, validation):
            return _mul_tele(structure, tele, validation)
    raise TheoryError(f"not a proof state: {outer!r}")


def _mul_tele(
    structure: JudgmentStructure, tele: Telescope, validation: Substitution
) -> ProofState:
    if isinstance(tele, TeleNil):
        return Subgoals(tele, validation)
    root = tele_context(tele)
    # one pass left to right: sigma carries each old flat prefix over to
    # the new one, so every entry is reindexed exactly once
    sigma = subst_identity(root)
    spliced: list[tuple[tuple[str, ...], Any]] = []
    walk = tele
    while isinstance(walk, TeleCons):
        head = walk.goal
        if not isinstance(head, (Fail, Bot, Subgoals)):
            raise TheoryError(f"subgoal is not a proof state: {head!r}")
        shifted = state_subst(structure, head, sigma)
        match shifted:
            case Fail(_, _) | Bot(_, _):
                # an absorbing goal already spliced in sits earlier in
                # dependency order, so its kind wins over the collapse
                kind = "fail" if isinstance(shifted, Fail) else "bot"
                for _, goal in spliced:
                    found = structure.obstruction(goal)
                    if found is not None:
                        kind = found
                        break
                wrap = Fail if kind == "fail" else Bot
                return wrap(root, validation.target)
            case Subgoals(inner_tele, inner_val):
                spliced.extend(tele_goals(inner_tele))
                # walk.names bind head's outputs over the rest; from here
                # on they stand for what the inner validation produced
                binder = tuple(
                    (n, s)
                    for n, (_, s) in zip(walk.names, inner_val.target.entries)
                )
                sigma = Substitution._trusted(
                    inner_val.source,
                    ctx_concat(sigma.target, Context(binder)),
                    sigma.terms + inner_val.terms,
                )
        walk = walk.rest
    flat: Telescope = TeleNil(sigma.source)
    for names, goal in reversed(spliced):
        flat = TeleCons(names, goal, flat)
    return Subgoals(flat, subst_compose(sigma, validation))


def state_alpha_eq(
    structure: JudgmentStructure, a: ProofState, b: ProofState
) -> bool:
    """Equality of states up to renaming of telescope binders."""
    match a, b:
        case Fail(ca, ta), Fail(cb, tb):
            return ca == cb and ta == tb
        case Bot(ca, ta), Bot(cb, tb):
            return ca == cb and ta == tb
        case Subgoals(ta_, va), Subgoals(tb_, vb):
            if a.context != b.context or va.target != vb.target:
                return False
            ra = subst_identity(a.context)
            rb = subst_identity(b.context)
            counter = [0]
            ok, ra, rb = _tele_alpha(structure, ta_, tb_, ra, rb, counter)
            if not ok:
                return False
            return subst_compose(ra, va) == subst_compose(rb, vb)
    return False


def _tele_alpha(
    structure: JudgmentStructure,
    ta: Telescope,
    tb: Telescope,
    ra: Substitution,
    rb: Substitution,
    counter: list[int],
) -> tuple[bool, Substitution, Substitution]:
    # ra, rb rename each side's binders so far onto a shared @k spine
    match ta, tb:
        case TeleNil(_), TeleNil(_):
            return True, ra, rb
        case TeleCons(na, ga, resta), TeleCons(nb, gb, restb):
            if len(na) != len(nb):
                return False, ra, rb
            out_a = structure.output(ga)
            out_b = structure.output(gb)
            sorts_a = tuple(s for _, s in out_a.entries)
            sorts_b = tuple(s for _, s in out_b.entries)
            if sorts_a != sorts_b:
                return False, ra, rb
            ga_canon = structure.subst(ga, ra)
            gb_canon = structure.subst(gb, rb)
            if not structure.alpha_eq(ga_canon, gb_canon):
                return False, ra, rb
            # nested comparisons may already have @k names in scope, so the
            # shared spine has to steer around both sides' sources
            taken = set(ra.source.names) | set(rb.source.names)
            picked = []
            for i in range(len(na)):
                name = fresh_name(f"@{counter[0] + i}", taken)
                taken.add(name)
                picked.append(name)
            canon = tuple(picked)
            counter[0] += len(na)
            binder_a = tuple((n, s) for n, s in zip(na, sorts_a))
            binder_b = tuple((n, s) for n, s in zip(nb, sorts_b))
            ra2 = subst_extend_binder(ra, binder_a, canon)
            rb2 = subst_extend_binder(rb, binder_b, canon)
            return _tele_alpha(structure, resta, restb, ra2, rb2, counter)
    return False, ra, rb


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
