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
from functools import partial
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
    if m is NEVER:
        return NEVER
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


def _natural(tac: Tactic) -> Tactic:
    # built from rules, id and `|` only: it answers at once, and it
    # refuses a goal moved by a renaming as it refused the goal, since
    # every rule is support-local (rule.py); repeat_multitactic relies
    # on this to keep a refusal standing
    tac.natural = True
    return tac


def id_tactic(structure: JudgmentStructure) -> Tactic:
    def tac(ctx: Context, goal: Any) -> Delayed:
        return Now(state_unit(structure, goal))

    return _natural(tac)


def from_rule(rule: Any) -> Tactic:
    def tac(ctx: Context, goal: Any) -> Delayed:
        return Now(rule.run(ctx, goal))

    return _natural(tac)


def orelse(t1: Tactic, t2: Tactic) -> Tactic:
    """Commit to t1 whenever it answers with subgoals, else fall to t2."""

    def tac(ctx: Context, goal: Any) -> Delayed:
        def after(state: ProofState) -> Delayed:
            if isinstance(state, Subgoals):
                return Now(state)
            return t2(ctx, goal)

        return bind(t1(ctx, goal), after)

    if getattr(t1, "natural", False) and getattr(t2, "natural", False):
        return _natural(tac)
    return tac


def try_tactic(structure: JudgmentStructure, t: Tactic) -> Tactic:
    return orelse(t, id_tactic(structure))


# given an entry and the memo: the goal handed over, its delayed answer,
# and the memo for the next entry as a function of the answer
_Attack = Callable[[TeleCons, Any], tuple[Any, Delayed, Callable[[ProofState], Any]]]


def _sweep(state: ProofState, attack: _Attack, memo: Any) -> Delayed:
    """Answer the entries of a state's telescope left to right, in place.

    An answer that is already resolved is taken in the same loop; one
    still running is awaited with a single bind whose continuation
    resumes the loop, so each step costs one unit of fuel and no chain of
    binds grows with the telescope.
    """
    if isinstance(state, (Fail, Bot)):
        return Now(state)
    assert isinstance(state, Subgoals)

    def resume(tele: Telescope, memo: Any, done: Any) -> Delayed:
        # done holds the answered entries, newest first, as nested pairs
        while isinstance(tele, TeleCons):
            goal, answer, settle = attack(tele, memo)
            if not isinstance(answer, Now):
                return bind(answer, partial(answered, tele, goal, settle, done))
            result = answer.value
            _fire_trace(goal, result)
            memo = settle(result)
            done = ((tele.names, result), done)
            tele = tele.rest
        while done is not None:
            (names, result), done = done
            tele = TeleCons(names, result, tele)
        return Now(Subgoals(tele, state.validation))

    def answered(tele, goal, settle, done, result: ProofState) -> Delayed:
        _fire_trace(goal, result)
        return resume(tele.rest, settle(result), ((tele.names, result), done))

    return resume(state.telescope, memo, None)


def all_mt(structure: JudgmentStructure, t: Tactic) -> Multitactic:
    """Run t on every subgoal in place, awaiting each.

    Goals are handed to t exactly as they stand in the telescope; the
    binders and validation are kept, so the result is a state whose goals
    are the per-subgoal answer states.
    """
    attack = _attack_unless_standing(structure, t, {})

    def mt(ctx: Context, state: ProofState) -> Delayed:
        return _sweep(state, attack, 0)

    mt.tactic = t
    return mt


def _attack_unless_standing(
    structure: JudgmentStructure, t: Tactic, standing: dict[int, type]
) -> _Attack:
    """Attack each entry with t, over the entries' positions; an entry
    whose position is in standing answers with that kind of refusal, and
    t does not run on it."""

    def attack(entry: TeleCons, index: int):
        goal = entry.goal
        refusal = standing.get(index)
        if refusal is None:
            answer = t(goal.context, goal)
        else:
            answer = Now(refusal(goal.context, structure.output(goal)))
        return goal, answer, lambda result: index + 1

    return attack


def each_mt(structure: JudgmentStructure, tactics: Sequence[Tactic]) -> Multitactic:
    """Apply the i-th tactic to the i-th subgoal, threading solutions.

    Before a goal is attacked, binder variables already discharged by
    earlier entries are replaced by their computed evidence, so later
    tactics see instantiated goals.  Goals past the end of the list are
    answered with the unit state of the instantiated goal.
    """

    # the memo is the evidence of the discharged binders, by name, and
    # the position of the entry
    def attack(entry: TeleCons, memo: tuple[dict, int]):
        pending, index = memo
        ctx_k = entry.goal.context
        sub = Substitution(
            ctx_k,
            ctx_k,
            tuple(
                pending.get(name, Var(name, sort)) for name, sort in ctx_k.entries
            ),
        )
        goal = structure.subst(entry.goal, sub)
        if index < len(tactics):
            answer = tactics[index](ctx_k, goal)
        else:
            answer = Now(state_unit(structure, goal))

        def settle(result: ProofState) -> tuple[dict, int]:
            if isinstance(result, Subgoals) and isinstance(
                result.telescope, TeleNil
            ):
                # entry fully discharged: record its evidence for
                # instantiating the goals that bound these names
                resolved = tuple(
                    subst_apply(t, sub) for t in result.validation.terms
                )
                return pending | dict(zip(entry.names, resolved)), index + 1
            return pending, index + 1

        return goal, answer, settle

    def mt(ctx: Context, state: ProofState) -> Delayed:
        return _sweep(state, attack, ({}, 0))

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


def _next_round(
    structure: JudgmentStructure,
    state: Subgoals,
    answers: ProofState,
    standing: dict[int, type] | None,
) -> tuple[ProofState, bool]:
    """The state after one round of a repeated multitactic, and whether
    the repetition stops there.

    A round is heal, flatten, compare: the flattening puts each refused
    goal back in place, and the repetition stops when the result equals
    the state before it up to renaming.  `standing`, if given, collects
    the refusals the flattening only renamed (see state_mul).
    """
    if isinstance(answers, (Fail, Bot)):
        return state, True
    advanced = state_mul(structure, answers, state.telescope, standing)
    if isinstance(advanced, (Fail, Bot)):
        return state, True
    return advanced, state_alpha_eq(structure, advanced, state)


def repeat_multitactic(
    structure: JudgmentStructure, mt: Multitactic
) -> Multitactic:
    """Iterate a multitactic over the flattened state until it is stable.

    Each productive round costs one step, and a round is heal, flatten,
    compare.  A round that fails outright, or whose flattening collapses,
    leaves the previous state standing.  An entry that refuses its goal
    (Fail or Bot) while the round keeps the telescope's binders leaves
    that goal in place, so that one stuck goal does not poison the
    progress made on its siblings.  The loop stops once a round leaves
    the state unchanged up to renaming, which `state_alpha_eq` alone
    decides, and hands the stable state back under the unit, ready for
    the caller's flattening.

    Over `all_mt(t)` with t built from rules, `id` and `|`, a round
    attacks only the goals that may answer differently than before.  A
    goal the last round refused, and whose flattening only renamed its
    free variables, injectively, keeps its refusal without t running on
    it: t answers at once, and every rule is support-local (rule.py).
    The standing refusal still goes to the trace hook in its place, so
    the rounds, their states and the trace are those of a full sweep.
    """
    outer = StateStructure(structure)
    t = getattr(mt, "tactic", None)
    natural = getattr(t, "natural", False)

    def loop(ctx: Context, state: ProofState, standing: dict[int, type]) -> Delayed:
        def after(answers: ProofState) -> Delayed:
            healed: dict[int, type] | None = {} if natural else None
            advanced, stop = _next_round(structure, state, answers, healed)
            if stop:
                return Now(state_unit(outer, advanced))
            return Later(lambda: loop(ctx, advanced, healed))

        if isinstance(state, (Fail, Bot)):
            return Now(state_unit(outer, state))
        if natural:
            attack = _attack_unless_standing(structure, t, standing)
            return bind(_sweep(state, attack, 0), after)
        return bind(mt(ctx, state), after)

    def start(ctx: Context, state: ProofState) -> Delayed:
        return loop(ctx, state, {})

    return start
