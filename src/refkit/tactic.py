"""Tactics over the delay monad, and multitactics over whole states.

A tactic maps a goal to a delayed proof state; delays make unbounded
search (orelse towers, repetition as a fixed point) total, with the
driver charging one unit of fuel per observed step.

A multitactic maps a state to a delayed state-of-states; flattening with
the state monad's multiplication composes the two layers.  Sequential
composition (seq), pointwise application (all), and positional
application (each) all arise this way.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence, Union

from .judgment import JudgmentStructure
from .state import (
    Bot,
    Fail,
    ProofState,
    StateStructure,
    Subgoals,
    TeleCons,
    TeleNil,
    Telescope,
    state_alpha_eq,
    state_mul,
    state_unit,
    tele_goals,
)
from .theory import Context, Substitution, Var, subst_apply


@dataclass(frozen=True)
class Now:
    value: Any


@dataclass(frozen=True)
class Later:
    thunk: Callable[[], "Delayed"]


@dataclass(frozen=True)
class Race:
    """Two still-running computations advancing in lockstep.

    Kept as a node rather than a closure so that forcing a deep tower of
    races is iterative over the left spine instead of recursive.
    """

    left: "Delayed"
    right: "Delayed"


Delayed = Union[Now, Later, Race]

NEVER: Delayed = Later(lambda: NEVER)


def race(a: Delayed, b: Delayed) -> Delayed:
    """First resolution wins; a tie goes to the left argument."""
    if isinstance(a, Now):
        return a
    if isinstance(b, Now):
        return b
    if a is NEVER:
        return b
    if b is NEVER:
        return a
    return Race(a, b)


def force(m: Delayed) -> Delayed:
    """Advance a non-resolved computation by one step."""
    match m:
        case Later(thunk):
            return thunk()
        case Race(_, _):
            spine = []
            cur: Delayed = m
            while isinstance(cur, Race):
                spine.append(cur.right)
                cur = cur.left
            acc = force(cur)
            while spine:
                acc = race(acc, force(spine.pop()))
            return acc
    raise TypeError(f"cannot force {m!r}")


def bind(m: Delayed, f: Callable[[Any], Delayed]) -> Delayed:
    if isinstance(m, Now):
        return f(m.value)
    return Later(lambda: bind(force(m), f))


@dataclass(frozen=True)
class Resolved:
    value: Any
    steps: int


@dataclass(frozen=True)
class OutOfFuel:
    steps: int


def run_delayed(m: Delayed, fuel: int) -> Union[Resolved, OutOfFuel]:
    """Drive a delayed computation, spending one fuel per step."""
    steps = 0
    while not isinstance(m, Now):
        if steps >= fuel:
            return OutOfFuel(steps)
        m = force(m)
        steps += 1
    return Resolved(m.value, steps)


def search(n: int, approx: Callable[[int], Delayed], x: Delayed) -> Delayed:
    """Race an increasing family of computations until one resolves."""
    if isinstance(x, Now):
        return x
    return Later(lambda: search(n + 1, approx, race(force(x), approx(n))))


def lub(approx: Callable[[int], Delayed]) -> Delayed:
    return search(0, approx, NEVER)


# a tactic answers a single goal; a multitactic rewrites a whole state
Tactic = Callable[[Context, Any], Delayed]
Multitactic = Callable[[Context, ProofState], Delayed]

_trace_hook: Callable[[Any, ProofState], None] | None = None


def set_trace_hook(hook: Callable[[Any, ProofState], None] | None) -> None:
    """Install a callback fired as each subgoal's tactic result resolves."""
    global _trace_hook
    _trace_hook = hook


def _fire_trace(goal: Any, state: ProofState) -> None:
    if _trace_hook is not None:
        _trace_hook(goal, state)


def never_tactic(ctx: Context, goal: Any) -> Delayed:
    return NEVER


def id_tactic(structure: JudgmentStructure) -> Tactic:
    def tac(ctx: Context, goal: Any) -> Delayed:
        return Now(state_unit(structure, goal))

    return tac


def from_rule(rule: Any) -> Tactic:
    def tac(ctx: Context, goal: Any) -> Delayed:
        return Now(rule.run(ctx, goal))

    return tac


def orelse(t1: Tactic, t2: Tactic) -> Tactic:
    """Commit to t1 whenever it answers with subgoals, else fall to t2."""

    def tac(ctx: Context, goal: Any) -> Delayed:
        def after(state: ProofState) -> Delayed:
            if isinstance(state, Subgoals):
                return Now(state)
            return t2(ctx, goal)

        return bind(t1(ctx, goal), after)

    return tac


def try_tactic(structure: JudgmentStructure, t: Tactic) -> Tactic:
    return orelse(t, id_tactic(structure))


def all_mt(structure: JudgmentStructure, t: Tactic) -> Multitactic:
    """Run t on every subgoal in place, awaiting each.

    Goals are handed to t exactly as they stand in the telescope; the
    binders and validation are kept, so the result is a state whose goals
    are the per-subgoal answer states.
    """

    def mt(ctx: Context, state: ProofState) -> Delayed:
        if isinstance(state, (Fail, Bot)):
            return Now(state)
        assert isinstance(state, Subgoals)

        def go(tele: Telescope) -> Delayed:
            if isinstance(tele, TeleNil):
                return Now(tele)
            assert isinstance(tele, TeleCons)
            goal = tele.goal

            def with_head(result: ProofState) -> Delayed:
                _fire_trace(goal, result)
                return bind(
                    go(tele.rest),
                    lambda rest: Now(TeleCons(tele.names, result, rest)),
                )

            return bind(t(goal.context, goal), with_head)

        return bind(
            go(state.telescope),
            lambda tele: Now(Subgoals(tele, state.validation)),
        )

    return mt


def each_mt(structure: JudgmentStructure, tactics: Sequence[Tactic]) -> Multitactic:
    """Apply the i-th tactic to the i-th subgoal, threading solutions.

    Before a goal is attacked, binder variables already discharged by
    earlier entries are replaced by their computed evidence, so later
    tactics see instantiated goals.  Goals past the end of the list are
    answered with the unit state of the instantiated goal.
    """

    def mt(ctx: Context, state: ProofState) -> Delayed:
        if isinstance(state, (Fail, Bot)):
            return Now(state)
        assert isinstance(state, Subgoals)

        def go(tele: Telescope, pending: dict, index: int) -> Delayed:
            if isinstance(tele, TeleNil):
                return Now(tele)
            assert isinstance(tele, TeleCons)
            ctx_k = tele.goal.context
            sub = Substitution(
                ctx_k,
                ctx_k,
                tuple(
                    pending.get(name, Var(name, sort))
                    for name, sort in ctx_k.entries
                ),
            )
            goal = structure.subst(tele.goal, sub)
            if index < len(tactics):
                answer = tactics[index](ctx_k, goal)
            else:
                answer = Now(state_unit(structure, goal))

            def with_head(result: ProofState) -> Delayed:
                _fire_trace(goal, result)
                new_pending = pending
                if isinstance(result, Subgoals) and isinstance(
                    result.telescope, TeleNil
                ):
                    # entry fully discharged: record its evidence for
                    # instantiating the goals that bound these names
                    resolved = tuple(
                        subst_apply(t, sub) for t in result.validation.terms
                    )
                    new_pending = dict(pending)
                    for name, term in zip(tele.names, resolved):
                        new_pending[name] = term
                return bind(
                    go(tele.rest, new_pending, index + 1),
                    lambda rest: Now(TeleCons(tele.names, result, rest)),
                )

            return bind(answer, with_head)

        return bind(
            go(state.telescope, {}, 0),
            lambda t: Now(Subgoals(t, state.validation)),
        )

    return mt


def seq(structure: JudgmentStructure, t: Tactic, mt: Multitactic) -> Tactic:
    """Run the tactic, hand the state to the multitactic, flatten."""

    def tac(ctx: Context, goal: Any) -> Delayed:
        def after_state(state: ProofState) -> Delayed:
            return bind(
                mt(state.context, state),
                lambda ss: Now(state_mul(structure, ss)),
            )

        return bind(t(ctx, goal), after_state)

    return tac


def then_tactic(structure: JudgmentStructure, t1: Tactic, t2: Tactic) -> Tactic:
    return seq(structure, t1, all_mt(structure, t2))


def thenl_tactic(
    structure: JudgmentStructure, t1: Tactic, tactics: Sequence[Tactic]
) -> Tactic:
    return seq(structure, t1, each_mt(structure, tactics))


def fix(transform: Callable[[Tactic], Tactic]) -> Tactic:
    """Least fixed point of a tactic transformer, taken as a limit.

    The n-th approximant applies the transformer n times to the tactic
    that never answers; running the fixed point races the approximants,
    so any goal some approximant handles is handled in bounded fuel.
    """
    approximants: list[Tactic] = [never_tactic]

    def at(n: int) -> Tactic:
        while len(approximants) <= n:
            approximants.append(transform(approximants[-1]))
        return approximants[n]

    def tac(ctx: Context, goal: Any) -> Delayed:
        return lub(lambda n: at(n)(ctx, goal))

    return tac


def repeat(structure: JudgmentStructure, t: Tactic) -> Tactic:
    """Apply t to the goal and recursively to all residual subgoals."""
    return fix(
        lambda rec: try_tactic(structure, then_tactic(structure, t, rec))
    )


def _recover_entries(
    structure: JudgmentStructure, before: Subgoals, after: ProofState
) -> ProofState:
    # replace per-entry refusals by the untouched goal, where the round
    # kept the telescope's shape; a restructured answer passes through
    if not isinstance(after, Subgoals):
        return after
    orig = tele_goals(before.telescope)
    res = tele_goals(after.telescope)
    if len(orig) != len(res):
        return after
    if any(na != nb for (na, _), (nb, _) in zip(orig, res)):
        return after

    def rebuild(tele: Telescope, i: int) -> Telescope:
        if isinstance(tele, TeleNil):
            return tele
        assert isinstance(tele, TeleCons)
        goal = tele.goal
        if isinstance(goal, (Fail, Bot)):
            goal = state_unit(structure, orig[i][1])
        return TeleCons(tele.names, goal, rebuild(tele.rest, i + 1))

    return Subgoals(rebuild(after.telescope, 0), after.validation)


def repeat_multitactic(
    structure: JudgmentStructure, mt: Multitactic
) -> Multitactic:
    """Iterate a multitactic over the flattened state until it is stable.

    Each productive round costs one step.  A round that fails outright,
    or whose flattening collapses, leaves the previous state standing;
    per-entry refusals are healed entry by entry so that one stuck goal
    does not poison the progress made on its siblings.  The stable state
    is handed back under the unit, ready for the caller's flattening.
    """
    outer = StateStructure(structure)

    def loop(ctx: Context, state: ProofState) -> Delayed:
        def after(ss: ProofState) -> Delayed:
            if isinstance(ss, (Fail, Bot)):
                return Now(state_unit(outer, state))
            assert isinstance(state, Subgoals)
            healed = _recover_entries(structure, state, ss)
            advanced = state_mul(structure, healed)
            if isinstance(advanced, (Fail, Bot)):
                return Now(state_unit(outer, state))
            if state_alpha_eq(structure, advanced, state):
                return Now(state_unit(outer, advanced))
            return Later(lambda: loop(ctx, advanced))

        if isinstance(state, (Fail, Bot)):
            return Now(state_unit(outer, state))
        return bind(mt(ctx, state), after)

    return loop
