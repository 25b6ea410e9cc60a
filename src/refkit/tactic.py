"""Tactics over the delay monad, and multitactics over whole states.

A tactic maps a goal to a delayed proof state; delays make unbounded
search (orelse towers, repetition as a fixed point) total, with the
driver charging one unit of fuel per observed step.

A multitactic maps a state to a delayed state-of-states; flattening with
the state monad's multiplication composes the two layers.  Sequential
composition (seq), pointwise application (all), and positional
application (each) all arise this way.

Tacticals build data, not closures: each tactic and multitactic is a
node, and one loop runs them all over an explicit stack of
continuations, the defunctionalised form of the tacticals' closures.
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


class _Node:
    """A tactic or a multitactic as data; calling it runs the machine.

    `natural` is set once, when the node is built: the node is made of
    rules, id and `|` only.  Such a tactic answers at once, and it refuses
    a goal moved by a renaming as it refused the goal, since every rule
    is support-local (rule.py); repeat_multitactic relies on this to keep
    a refusal standing.  A plain callable is a tactic too, never natural.
    """

    __slots__ = ()
    natural = False

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def __call__(self, ctx: Context, x: Any) -> Delayed:
        return _run(self, ctx, x, None)


def _is_natural(t: Tactic) -> bool:
    return isinstance(t, _Node) and t.natural


class _Rule(_Node):
    __slots__ = ("rule",)
    natural = True


class _Id(_Node):
    __slots__ = ("structure",)
    natural = True


class _OrElse(_Node):
    __slots__ = ("first", "second", "natural")

    def __init__(self, first: Tactic, second: Tactic):
        super().__init__(first, second, _is_natural(first) and _is_natural(second))


class _Seq(_Node):
    __slots__ = ("structure", "first", "then")


class _All(_Node):
    __slots__ = ("structure", "tactic")


class _Each(_Node):
    __slots__ = ("structure", "tactics")


class _Repeat(_Node):
    __slots__ = ("structure", "body", "outer", "worklist")

    def __init__(self, structure: JudgmentStructure, body: Multitactic):
        worklist = isinstance(body, _All) and _is_natural(body.tactic)
        super().__init__(structure, body, StateStructure(structure), worklist)


class _Fix(_Node):
    __slots__ = ("transform", "approximants")

    def __init__(self, transform: Callable[[Tactic], Tactic]):
        super().__init__(transform, [never_tactic])

    def __call__(self, ctx: Context, goal: Any) -> Delayed:
        def approximant(n: int) -> Delayed:
            while len(self.approximants) <= n:
                self.approximants.append(self.transform(self.approximants[-1]))
            return _run(self.approximants[n], ctx, goal, None)

        return lub(approximant)


# The machine's stack is a linked list of frames, (frame, rest) or None,
# so a suspended run can be resumed any number of times.  The frames:
#   (_FALLBACK, tactic, ctx, goal)  run tactic unless the answer has subgoals
#   (_THEN, seq)                    hand the state to seq's multitactic
#   (_FLATTEN, structure)           flatten the state of states
#   (_SWEEP, sweep, state, tele, done, index, memo, goal, sub)
#       take the answer to goal, the entry at the head of tele (none when
#       goal is None), and attack the next; memo holds the standing
#       refusals by position (all) or the evidence found so far (each)
#   (_ROUND, repeat, state, ctx)    heal, flatten, compare, and go round
_FALLBACK, _THEN, _FLATTEN, _SWEEP, _ROUND = range(5)


def _run(node: Any, ctx: Any, x: Any, k: Any, value: Any = None) -> Delayed:
    """Run node on x, a goal or a state, and hand its answer to the frames
    of k; with no node, hand them value.

    An answer that is already resolved is taken in the same loop, so no
    Python frame is spent per goal level.  A leaf that takes steps, a
    fixed point or a plain callable, suspends the run as one bind whose
    continuation resumes it on k, and a productive round of `m*` returns
    one Later that resumes it: those are the steps a run is charged.
    """
    while True:
        if node is not None:
            cls = type(node)
            if cls is _OrElse:
                k = ((_FALLBACK, node.second, ctx, x), k)
                node = node.first
                continue
            if cls is _Rule:
                value = node.rule.run(ctx, x)
            elif cls is _All or cls is _Each:
                if isinstance(x, Subgoals):
                    k = ((_SWEEP, node, x, x.telescope, None, 0, {}, None, None), k)
                else:
                    value = x
            elif cls is _Id:
                value = state_unit(node.structure, x)
            elif cls is _Seq:
                k = ((_THEN, node), k)
                node = node.first
                continue
            elif cls is _Repeat:
                if isinstance(x, Subgoals):
                    k = ((_ROUND, node, x, ctx), k)
                    node = node.body
                    continue
                value = state_unit(node.outer, x)
            else:
                m = node(ctx, x)
                if not isinstance(m, Now):
                    return bind(m, partial(_run, None, None, None, k))
                value = m.value
        while k is not None:
            frame, k = k
            tag = frame[0]
            if tag == _FALLBACK:
                if not isinstance(value, Subgoals):
                    _, node, ctx, x = frame
                    break
            elif tag == _SWEEP:
                _, sweep, state, tele, done, index, memo, goal, sub = frame
                if goal is not None:
                    _fire_trace(goal, value)
                    if (
                        sub is not None
                        and isinstance(value, Subgoals)
                        and isinstance(value.telescope, TeleNil)
                    ):
                        # entry fully discharged: record its evidence for
                        # instantiating the goals that bound these names
                        resolved = (subst_apply(t, sub) for t in value.validation.terms)
                        memo = memo | dict(zip(tele.names, resolved))
                    done = ((tele.names, value), done)
                    tele, index = tele.rest, index + 1
                if not isinstance(tele, TeleCons):
                    while done is not None:
                        (names, result), done = done
                        tele = TeleCons(names, result, tele)
                    value = Subgoals(tele, state.validation)
                    continue
                ctx, goal, structure = tele.goal.context, tele.goal, sweep.structure
                if type(sweep) is _All:
                    node, refusal = sweep.tactic, memo.get(index)
                    if refusal is not None:
                        node, value = None, refusal(ctx, structure.output(goal))
                else:
                    pending = (memo.get(n, Var(n, sort)) for n, sort in ctx.entries)
                    sub = Substitution(ctx, ctx, tuple(pending))
                    goal = structure.subst(goal, sub)
                    node = sweep.tactics[index] if index < len(sweep.tactics) else None
                    if node is None:
                        value = state_unit(structure, goal)
                k = ((_SWEEP, sweep, state, tele, done, index, memo, goal, sub), k)
                if node is not None:
                    x = goal
                    break
            elif tag == _THEN:
                k = ((_FLATTEN, frame[1].structure), k)
                node, ctx, x = frame[1].then, value.context, value
                break
            elif tag == _FLATTEN:
                value = state_mul(frame[1], value)
            else:
                _, repeat, state, ctx = frame
                healed: dict[int, type] | None = {} if repeat.worklist else None
                advanced, stop = _next_round(repeat.structure, state, value, healed)
                if stop:
                    value = state_unit(repeat.outer, advanced)
                    continue
                k = ((_ROUND, repeat, advanced, ctx), k)
                if healed is None:
                    return Later(partial(_run, repeat.body, ctx, advanced, k))
                tele = advanced.telescope
                frame = (_SWEEP, repeat.body, advanced, tele, None, 0, healed, None, None)
                return Later(partial(_run, None, None, None, (frame, k)))
        else:
            return Now(value)


def id_tactic(structure: JudgmentStructure) -> Tactic:
    return _Id(structure)


def from_rule(rule: Any) -> Tactic:
    return _Rule(rule)


def orelse(t1: Tactic, t2: Tactic) -> Tactic:
    """Commit to t1 whenever it answers with subgoals, else fall to t2."""
    return _OrElse(t1, t2)


def try_tactic(structure: JudgmentStructure, t: Tactic) -> Tactic:
    return orelse(t, id_tactic(structure))


def all_mt(structure: JudgmentStructure, t: Tactic) -> Multitactic:
    """Run t on every subgoal in place, awaiting each.

    Goals are handed to t exactly as they stand in the telescope; the
    binders and validation are kept, so the result is a state whose goals
    are the per-subgoal answer states.
    """
    return _All(structure, t)


def each_mt(structure: JudgmentStructure, tactics: Sequence[Tactic]) -> Multitactic:
    """Apply the i-th tactic to the i-th subgoal, threading solutions.

    Before a goal is attacked, binder variables already discharged by
    earlier entries are replaced by their computed evidence, so later
    tactics see instantiated goals.  Goals past the end of the list are
    answered with the unit state of the instantiated goal.
    """
    return _Each(structure, tuple(tactics))


def seq(structure: JudgmentStructure, t: Tactic, mt: Multitactic) -> Tactic:
    """Run the tactic, hand the state to the multitactic, flatten."""
    return _Seq(structure, t, mt)


def then_tactic(structure: JudgmentStructure, t1: Tactic, t2: Tactic) -> Tactic:
    return seq(structure, t1, all_mt(structure, t2))


def fix(transform: Callable[[Tactic], Tactic]) -> Tactic:
    """Least fixed point of a tactic transformer, taken as a limit.

    The n-th approximant applies the transformer n times to the tactic
    that never answers; running the fixed point races the approximants,
    so any goal some approximant handles is handled in bounded fuel.
    """
    return _Fix(transform)


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

    Over `all_mt(t)` with t natural, a round attacks only the goals that
    may answer differently than before.  A goal the last round refused,
    and whose flattening only renamed its free variables, injectively,
    keeps its refusal without t running on it: t answers at once, and
    every rule is support-local (rule.py).  The standing refusal still
    goes to the trace hook in its place, so the rounds, their states and
    the trace are those of a full sweep.
    """
    return _Repeat(structure, mt)
