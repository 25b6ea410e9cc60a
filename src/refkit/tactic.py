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

from .judgment import JudgmentStructure, goal_support
from .rule import Heads, _admits
from .state import (
    Bot,
    Fail,
    ProofState,
    StateStructure,
    Subgoals,
    TeleBuilder,
    TeleCons,
    TeleNil,
    _Reindexing,
    _in_place,
    _renaming,
    state_alpha_eq,
    state_mul,
    state_spliced,
    state_unit,
    tele_goals,
)
from .theory import (
    App,
    Context,
    ContextMismatch,
    NameSupply,
    Substitution,
    Term,
    TheoryError,
    Var,
    subst_apply,
    subst_compose,
)


@dataclass(frozen=True, slots=True)
class Now:
    value: Any


@dataclass(frozen=True, slots=True)
class Later:
    thunk: Callable[[], "Delayed"]


@dataclass(frozen=True, slots=True)
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

TraceHook = Callable[[Any, type, int], None]
_trace_hook: TraceHook | None = None


def set_trace_hook(hook: TraceHook | None) -> TraceHook | None:
    """Install a callback fired as each subgoal's tactic result resolves,
    and give back the one it replaces.

    The hook is called as hook(goal, kind, goals): kind is the answer's
    class, Subgoals, Fail or Bot, and goals the number of goals it has
    (0 for a refusal).  Watching a run does not change how it runs.
    """
    global _trace_hook
    previous, _trace_hook = _trace_hook, hook
    return previous


def _event(goal: Any, answer: ProofState) -> tuple[Any, type, int]:
    """goal's answer as the trace hook is shown it."""
    kind = type(answer)
    return goal, kind, len(tele_goals(answer.telescope)) if kind is Subgoals else 0


def never_tactic(ctx: Context, goal: Any) -> Delayed:
    return NEVER


class _Node:
    """A tactic or a multitactic as data; calling it runs the machine.

    `natural` is set once, when the node is built: the node is made of
    rules, id and `|` only.  Such a tactic answers at once, and it refuses
    a goal moved by a renaming as it refused the goal, since every rule
    is support-local (rule.py); repeat_multitactic relies on this to keep
    a refusal standing, and it and repeat to refuse a goal of a shape
    refused before (_attack).  A plain callable is a tactic too, never
    natural.

    A run of a tactic node whose structure is known checks that the answer
    it hands back targets the goal's outputs (_checked), as a sweep checks
    the answers it takes.
    """

    __slots__ = ()
    natural = False

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def __call__(self, ctx: Context, x: Any) -> Delayed:
        return _run(self, ctx, x, _checked(self, x))


def _is_natural(t: Tactic) -> bool:
    return isinstance(t, _Node) and t.natural


class _Rule(_Node):
    __slots__ = ("rule", "structure", "heads")
    natural = True


class _Id(_Node):
    __slots__ = ("structure",)
    natural = True


class _OrElse(_Node):
    """t1 | t2; leaves, for a natural one, is None until it first answers
    (_answer)."""

    __slots__ = ("first", "second", "natural", "structure", "leaves")

    def __init__(self, first: Tactic, second: Tactic):
        structure = getattr(first, "structure", None)
        if structure is None:
            structure = getattr(second, "structure", None)
        natural = _is_natural(first) and _is_natural(second)
        super().__init__(first, second, natural, structure, None)


class _Seq(_Node):
    __slots__ = ("structure", "first", "then")


class _All(_Node):
    __slots__ = ("structure", "tactic")


class _Each(_Node):
    __slots__ = ("structure", "tactics")


class _Repeat(_Node):
    __slots__ = ("structure", "body", "outer", "worklist")

    def __init__(self, structure: JudgmentStructure, body: Multitactic):
        # _Rounds reads a goal's free variables off its term fields, which
        # a state, as a goal, does not have
        worklist = (
            isinstance(body, _All)
            and _is_natural(body.tactic)
            and not isinstance(structure, StateStructure)
        )
        super().__init__(structure, body, StateStructure(structure), worklist)


class _Star(_Node):
    """repeat(structure, tactic) with tactic natural, run as one
    depth-first pass (_walk)."""

    __slots__ = ("structure", "tactic")


class _Fix(_Node):
    __slots__ = ("transform", "approximants", "structure")

    def __init__(self, transform: Callable[[Tactic], Tactic], structure: Any = None):
        super().__init__(transform, [never_tactic], structure)

    def __call__(self, ctx: Context, goal: Any) -> Delayed:
        k = _checked(self, goal)

        def approximant(n: int) -> Delayed:
            while len(self.approximants) <= n:
                self.approximants.append(self.transform(self.approximants[-1]))
            return _run(self.approximants[n], ctx, goal, k)

        return lub(approximant)


def _checked(t: _Node, goal: Any) -> Any:
    """The stack a run of t on goal hands its answer to: a frame that
    checks the answer targets goal's outputs, if t is a tactic whose
    structure is known, else none."""
    structure = getattr(t, "structure", None)
    if structure is None or isinstance(t, (_All, _Each, _Repeat)):
        return None
    return ((_TAKE, structure, goal), None)


# The machine's stack is a linked list of frames, (frame, rest) or None,
# so a suspended run can be resumed any number of times.  The frames:
#   (_FALLBACK, tactic, ctx, goal)  run tactic unless the answer has
#       subgoals; only a `|` with a side that is not natural pushes one,
#       since a natural node answers in one call (_answer)
#   (_THEN, seq)                    hand the state to seq's multitactic and
#       flatten its answer by a _FLATTEN frame or, for `[...]`, the sweep
#   (_FLATTEN, structure)           flatten the state of states
#   (_SWEEP, sweep, state, tele, done, index, image, goal, flat)
#       take the answer to goal, the entry at the head of tele (none when
#       goal is None), and attack the next; image sends each name in
#       scope to the evidence found for it, or to itself (each), and is
#       extended in place, which a run resumed twice extends alike; with
#       flat, _THEN's structure, image is the flattening's map while every
#       entry is discharged in place (_in_place), else a _FLATTEN is pushed
#   (_ROUND, repeat, state, ctx)    heal, flatten, compare, and go round
#   (_TAKE, structure, goal)        check the answer to the run's own goal
# A round of `all(t)*` with t natural takes no frame: _Rounds runs it
# over a telescope of its own, which a run resumes from by _resume_rounds
# once only, since a round changes it in place.  Nor does the pass of a
# star `t*` with t natural: _walk runs it over a path of its own.
_FALLBACK, _THEN, _FLATTEN, _SWEEP, _ROUND, _TAKE = range(6)


def _run(node: Any, ctx: Any, x: Any, k: Any, value: Any = None) -> Delayed:
    """Run node on x, a goal or a state, and hand its answer to the frames
    of k; with no node, hand them value.

    A natural node, a rule, id or a `|` of natural tactics, is answered
    in one call (_answer) and pushes no frame.  An answer that is already
    resolved is taken in the same loop, so no Python frame is spent per
    goal level.  A leaf that takes steps, a fixed point or a plain
    callable, suspends the run as one bind whose continuation resumes it
    on k; a productive round of `m*` returns one Later that resumes it,
    and so does a star's pass at each goal deeper than any it has
    attacked (_walk): those are the steps a run is charged.  An answer is
    checked where it is taken, before any frame sees it: a leaf's for its
    kind, one a sweep takes, and the one a run hands back (_checked), for
    its target (_taken).
    """
    while True:
        if node is not None:
            cls = type(node)
            if cls is _Rule or cls is _Id or (cls is _OrElse and node.natural):
                value = _answer(node, ctx, x)
            elif cls is _OrElse:
                k = ((_FALLBACK, node.second, ctx, x), k)
                node = node.first
                continue
            elif cls is _All or cls is _Each:
                if isinstance(x, Subgoals):
                    k = (_sweep(node, x, None), k)
                else:
                    value = x
            elif cls is _Seq:
                k = ((_THEN, node), k)
                node = node.first
                continue
            elif cls is _Repeat:
                if not isinstance(x, Subgoals):
                    value = state_unit(node.outer, x)
                elif node.worklist:
                    # the first round runs here, so a run that settles at
                    # once takes no Python frame
                    rounds = _Rounds(node, x)
                    settled = rounds.round()
                    if settled is None:
                        return Later(partial(_resume_rounds, rounds, 1, k))
                    value = state_unit(node.outer, settled)
                else:
                    k = ((_ROUND, node, x, ctx), k)
                    node = node.body
                    continue
            elif cls is _Star:
                # approximant 0 never answers: one step
                return Later(partial(_walk, node, ctx, x, None, 0, 0, None, 0, k, {}))
            else:
                m = node(ctx, x)
                if isinstance(m, (Later, Race)):
                    return bind(m, lambda v: _run(None, None, None, k, _proof_state(v)))
                if not isinstance(m, Now):
                    raise TheoryError(f"tactic answered {type(m).__name__}, not a Delayed")
                value = _proof_state(m.value)
        while k is not None:
            frame, k = k
            tag = frame[0]
            if tag == _FALLBACK:
                if not isinstance(value, Subgoals):
                    _, node, ctx, x = frame
                    break
            elif tag == _SWEEP:
                _, sweep, state, tele, done, index, image, goal, flat = frame
                if goal is not None:
                    _taken(sweep.structure, goal, value)
                    if _trace_hook is not None:
                        _trace_hook(*_event(goal, value))
                    if image is not None:
                        # the names stand for the evidence if the entry is discharged
                        if isinstance(value, Subgoals) and isinstance(value.telescope, TeleNil):
                            terms = _substituted(value.validation.terms, image)
                        else:
                            terms = map(Var, tele.names, [s for _, s in value.target.entries])
                        image.update(zip(tele.names, terms))
                    if flat is not None and not _in_place(tele, value):
                        k, flat = ((_FLATTEN, flat), k), None
                    done = ((tele.names, value), done)
                    tele, index = tele.rest, index + 1
                if not isinstance(tele, TeleCons):
                    if flat is not None and done is not None:
                        # every entry discharged in place: image is the flattening
                        root = state.context
                        move = _Reindexing(root, tele.context, image)
                        value = Subgoals(TeleNil(root), subst_compose(move, state.validation))
                        continue
                    while done is not None:
                        (names, result), done = done
                        tele = TeleCons(names, result, tele)
                    value = Subgoals(tele, state.validation)
                    continue
                ctx, goal, structure = tele.goal.context, tele.goal, sweep.structure
                if image is None:
                    node = sweep.tactic
                else:
                    goal = structure.subst(goal, _Reindexing(ctx, ctx, image))
                    node = sweep.tactics[index] if index < len(sweep.tactics) else None
                    if node is None:
                        value = state_unit(structure, goal)
                k = ((_SWEEP, sweep, state, tele, done, index, image, goal, flat), k)
                if node is not None:
                    x = goal
                    break
            elif tag == _THEN:
                seq, ctx, x = frame[1], value.context, value
                node = seq.then
                if node.__class__ is _Each and x.__class__ is Subgoals:
                    # the sweep flattens its answer itself
                    k = (_sweep(node, x, seq.structure), k)
                    continue
                k = ((_FLATTEN, seq.structure), k)
                break
            elif tag == _FLATTEN:
                value = state_mul(frame[1], value)
            elif tag == _TAKE:
                _taken(frame[1], frame[2], value)
            else:
                _, repeat, state, ctx = frame
                advanced, stop = _next_round(repeat.structure, state, value)
                if stop:
                    value = state_unit(repeat.outer, advanced)
                    continue
                k = ((_ROUND, repeat, advanced, ctx), k)
                return Later(partial(_run, repeat.body, ctx, advanced, k))
        else:
            return Now(value)


def _answer(node: _Node, ctx: Context, goal: Any) -> ProofState:
    """The answer of node, a natural tactic, to goal: the first answer
    with subgoals among its leaves', rules and id in order, else the last
    leaf's refusal.

    A rule leaf whose index entry excludes goal is not run; if it is the
    last leaf, its answer is the one its clauses fall through to.  An
    answer that is not a proof state raises TheoryError.  A natural `|`
    flattens its leaves once, on first use, over an explicit stack.
    """
    if node.__class__ is _OrElse:
        leaves = node.leaves
        if leaves is None:
            leaves, stack = [], [node]
            while stack:
                t = stack.pop()
                if t.__class__ is _OrElse:
                    stack += (t.second, t.first)
                else:
                    leaves.append(t)
            leaves = node.leaves = tuple(leaves)
        last = leaves[-1]
    else:
        leaves, last = (node,), node
    for leaf in leaves:
        if leaf.__class__ is _Id:
            return state_unit(leaf.structure, goal)
        heads = leaf.heads
        if heads is not None and not _admits(heads, goal):
            if leaf is last:
                return Fail(ctx, leaf.structure.output(goal))
            continue
        answer = leaf.rule.run(ctx, goal)
        kind = answer.__class__
        if kind is Subgoals:
            return answer
        if kind is not Fail and kind is not Bot:
            raise TheoryError(f"subgoal is not a proof state: {answer!r}")
    return answer


def _sweep(sweep: _All | _Each, state: Subgoals, flat: JudgmentStructure | None) -> tuple:
    """The _SWEEP frame that attacks the first entry of state."""
    image = None if sweep.__class__ is _All else {n: Var(n, s) for n, s in state.context.entries}
    return (_SWEEP, sweep, state, state.telescope, None, 0, image, None, flat)


def _proof_state(value: Any) -> ProofState:
    """value, the answer of a plain callable, checked to be a state."""
    if not isinstance(value, (Subgoals, Fail, Bot)):
        raise TheoryError(f"subgoal is not a proof state: {value!r}")
    return value


def _taken(structure: JudgmentStructure, goal: Any, answer: ProofState) -> ProofState:
    """answer, taken for goal, checked to target goal's outputs."""
    target = answer.target
    if target is not structure.output(goal) and target != structure.output(goal):
        raise ContextMismatch(f"answer to {structure.render(goal)!r} is not over its outputs")
    return answer


def _shape(goal: Any) -> tuple | None:
    """goal up to an injective renaming of its free variables, or None if
    a term field of it is open.

    The fields are read through the class's `__match_args__`.  Each
    variable field is (Var, the index of the variable's first
    occurrence, its sort), each closed term is itself, as terms are
    interned, and any other field is kept raw; the context is left out.
    """
    shape: list[Any] = [goal.__class__]
    first: dict[str, int] = {}
    for field in goal.__match_args__:
        value = getattr(goal, field)
        cls = value.__class__
        if cls is Var:
            shape.append((Var, first.setdefault(value.name, len(first)), value.sort))
        elif cls is App:
            if value.free:
                return None
            shape.append(value)
        elif field != "context":
            shape.append(value)
    return tuple(shape)


def _attack(
    structure: JudgmentStructure, tactic: Tactic, ctx: Context, goal: Any, refused: dict
) -> ProofState:
    """tactic's answer to goal, checked to target its outputs, where tactic
    is natural and refused maps the shapes (_shape) of the goals it has
    refused to the kind of each refusal.

    A goal of a shape refused before is refused alike without running
    tactic: every rule is support-local (rule.py), so a natural tactic
    gives goals of one shape one verdict.
    """
    shape = _shape(goal)
    kind = None if shape is None else refused.get(shape)
    if kind is not None:
        return kind(ctx, structure.output(goal))
    answer = _taken(structure, goal, _answer(tactic, ctx, goal))
    if shape is not None and answer.__class__ is not Subgoals:
        refused[shape] = answer.__class__
    return answer


def _walk(
    star: _Star, ctx: Any, goal: Any, path: Any, depth: int, bound: int,
    steps: Any, stood: int, k: Any, refused: dict,
) -> Delayed:
    """Go on with star's pass at goal, depth levels below the star's goal,
    bounded at bound levels, and hand the state it ends on to the frames
    of k (see repeat).

    path holds the levels the pass is in, innermost first, as a linked
    list ((goal, answer, tele, start), rest) or None: answer is the
    tactic's answer to goal, tele the entry of its telescope attacked
    next, and start the number of goals that stood as the level began.
    stood counts the goals the tactic refused, which stand.  steps
    records what the pass handed to a level above, the last at its head,
    each ((goal, goals), step): the goal that ended, the number of goals
    that stand for it, and its step of the flattening (state_spliced).
    refused is the pass's table of refused shapes (_attack).  Nothing
    else is changed in place, and the table only caches what the tactic
    answers, so a Later forced twice resumes the same pass twice.
    """
    if _trace_hook is not None:
        # approximant bound shows again what the one before it showed
        shown, rest = [], steps
        while rest is not None:
            (event, _), rest = rest
            shown.append(event)
        for ended, goals in reversed(shown):
            _trace_hook(ended, Subgoals, goals)
    structure, tactic = star.structure, star.tactic
    while True:
        if depth >= bound:
            resume = partial(
                _walk, star, ctx, goal, path, depth, bound + 1, steps, stood, k, refused
            )
            return Later(resume)
        answer = _attack(structure, tactic, ctx, goal, refused)
        if isinstance(answer, Subgoals):
            path = ((goal, answer, answer.telescope, stood), path)
            depth += 1
            ended = None
        elif path is None:
            return _run(None, None, None, k, state_unit(structure, goal))
        else:
            ended, put, goals = goal, (goal,), 1
            stood += 1
        # hand what ended to the level above it, and end each level that
        # has no entry left to attack
        while True:
            if ended is None:
                (above, answer, tele, start), rest = path
                if isinstance(tele, TeleCons):
                    break
                ended, put, goals, path = above, (answer, tele.context), stood - start, rest
                depth -= 1
                if path is None:
                    return _run(None, None, None, k, state_spliced(structure, answer, steps))
            if _trace_hook is not None:
                _trace_hook(ended, Subgoals, goals)
            (above, answer, tele, start), rest = path
            steps = (((ended, goals), (*put, tele.names)), steps)
            path = ((above, answer, tele.rest, start), rest)
            ended = None
        goal = tele.goal
        ctx = goal.context


def _resume_rounds(rounds: "_Rounds", done: int, k: Any) -> Delayed:
    """Go on with an `all(t)*` run after its done-th round, which moved
    the state, and hand the state it settles on to the frames of k."""
    if rounds.rounds != done:
        raise RuntimeError("an all(t)* run was resumed twice from one round")
    settled = rounds.round()
    if settled is None:
        return Later(partial(_resume_rounds, rounds, done + 1, k))
    return _run(None, None, None, k, state_unit(rounds.outer, settled))


class _Entry:
    """A goal of an `all(t)*` run, over the context of its own free
    variables: names of the root context and atoms of entries before it.

    atoms are the variables that stand for its outputs, stems the names
    its binders are named after, and refusal the kind (Fail or Bot) of
    the answer it stands on, or None while it is to be attacked.
    """

    __slots__ = ("goal", "atoms", "stems", "refusal", "prev", "next")

    def __init__(self, goal: Any, atoms: tuple[Var, ...], stems: tuple[str, ...]):
        self.goal, self.atoms, self.stems = goal, atoms, stems
        self.refusal = self.prev = self.next = None


class _Image:
    """Names sent to terms, which subst_apply reads as a substitution."""

    __slots__ = ("lookup",)

    def __init__(self, image: dict[str, Term]):
        self.lookup = image.get


def _free(t: Term) -> Any:
    return (t,) if t.__class__ is Var else t.free


def _substituted(terms: Any, image: dict[str, Term]) -> tuple[Term, ...]:
    move = _Image(image)
    return tuple(subst_apply(t, move) for t in terms)


class _Rounds:
    """The rounds of `all(t)*` with t natural, over a telescope of its own
    (see repeat_multitactic).

    The telescope is a linked list of entries after head.  Its binders
    are atoms: variables named `%`, `%'1`, ..., fresh against the root
    context, which no goal text can name.  uses maps each atom to the
    entries that mention it.  The validation is kept as outputs, over the
    root context and the first atoms, and bound, each answered atom in
    the order it was answered, with its output over the atoms that stood
    then; the two are put together once, where the state is named.  work
    holds the entries the next round attacks.  Names are given only where
    they are read: in the state a run settles on, in a round that keeps
    the number of goals, whose stop test is state_alpha_eq's
    (state._renaming), and in each round's goals while a trace hook is
    installed.  They are the names a flattening gives, NameSupply
    replayed from the root context's names over the stems in telescope
    order.  handed is the telescope the run was handed, whose goals the
    first round shows the hook as they stand, and None after it.
    """

    def __init__(self, repeat: _Repeat, state: Subgoals):
        self.structure = repeat.structure
        self.tactic = repeat.body.tactic
        self.outer = repeat.outer
        self.root = state.context
        self.target = state.validation.target
        self.supply = NameSupply(self.root.names)
        self.uses: dict[str, dict[_Entry, None]] = {}
        self.work: dict[_Entry, None] = {}
        self.rounds = 0
        self.refused: dict[tuple, type] = {}
        self.head = _Entry(None, (), ())
        image: dict[str, Term] = {n: Var(n, sort) for n, sort in self.root.entries}
        self._link(self.head, self._entries(state.telescope, image), None)
        self.outputs = _substituted(state.validation.terms, image)
        self.bound: list[tuple[str, Term]] = []
        self.handed: Any = state.telescope

    def round(self) -> Subgoals | None:
        """Attack, splice, substitute and compare: the state the round
        leaves if it equals the state before it up to renaming, else None.

        The round is a flattening of the answers: each entry that answered
        with subgoals is replaced by them, and its outputs are bound to its
        atoms (_bind).  A refused entry stands as its unit state would,
        under binders named after its outputs.
        """
        self.rounds += 1
        work, self.work = self.work, {}
        # named before the attacks, which rename a refused goal's stems
        goals = None if _trace_hook is None else self._goals()
        self.handed = None
        answers = {entry: self._attack(entry) for entry in work}
        if goals is not None:
            self._show(goals, answers)
        answered = [(e, a) for e, a in answers.items() if isinstance(a, Subgoals)]
        if not answered:
            # every goal refused: the flattening only renames the state
            return self.state()
        grown = sum(len(tele_goals(a.telescope)) - 1 for _, a in answered)
        # states with as many goals may still be equal: name the goals
        # before and after, and build the validations only if they match
        before = None if grown else (*self._named(), len(self.bound))
        bound: dict[str, Term] = {}
        for entry, answer in answered:
            image: dict[str, Term] = {n: Var(n, s) for n, s in entry.goal.context.entries}
            self._drop(entry, self._entries(answer.telescope, image))
            outputs = _substituted(answer.validation.terms, image)
            bound.update(zip([a.name for a in entry.atoms], outputs))
        self._bind(bound)
        if before is None:
            return None
        b, names = self._named()
        move = _renaming(self.structure, b.telescope, before[0].telescope)
        if move is None:
            return None
        state = b.close(self._validation(b, names, len(self.bound)))
        if state.validation != subst_compose(move, self._validation(*before)):
            return None
        return state

    def _attack(self, entry: _Entry) -> ProofState:
        goal = entry.goal
        answer = _attack(self.structure, self.tactic, goal.context, goal, self.refused)
        if isinstance(answer, (Fail, Bot)):
            entry.refusal = type(answer)
            entry.stems = self.structure.output(goal).names
        return answer

    def _goals(self) -> list[Any]:
        """The goals, in telescope order, as the round shows them."""
        tele = self._named()[0].telescope if self.handed is None else self.handed
        return [goal for _, goal in tele_goals(tele)]

    def _show(self, goals: list[Any], answers: dict[_Entry, ProofState]) -> None:
        """Show the trace hook each goal, in telescope order, with its
        answer, or with its standing refusal if it was not attacked."""
        entry = self.head.next
        for goal in goals:
            answer = answers.get(entry)
            if answer is None:
                _trace_hook(goal, entry.refusal, 0)
            else:
                _trace_hook(*_event(goal, answer))
            entry = entry.next

    def _entries(self, tele: Any, image: dict[str, Term]) -> list[_Entry]:
        """Entries, to be attacked, for the goals of tele, a telescope
        over the names image sends into the run; each binder of tele joins
        image as its atom."""
        fresh = []
        while isinstance(tele, TeleCons):
            goal = tele.goal
            outputs = self.structure.output(goal).entries
            atoms = []
            for _, sort in outputs:
                atom = Var(self.supply.fresh("%"), sort)
                self.uses[atom.name] = {}
                atoms.append(atom)
            moved = self._moved(goal, goal_support(goal), image)
            entry = _Entry(moved, tuple(atoms), tele.names)
            self._use(entry)
            image.update(zip(tele.names, atoms, strict=True))
            fresh.append(entry)
            tele = tele.rest
        self.work.update(dict.fromkeys(fresh))
        return fresh

    def _moved(self, goal: Any, names: Any, image: dict[str, Term]) -> Any:
        """goal, whose free variables are names, with image put in for
        them, over the context of the variables that are free after."""
        free: dict[str, Any] = {}
        for name in names:
            term = image.get(name)
            # a name image lacks is reported by the substitution
            if term is not None:
                for v in _free(term):
                    free[v.name] = v.sort
        support = Context(tuple(sorted(free.items())))
        return self.structure.subst(goal, _Reindexing(support, goal.context, image))

    def _use(self, entry: _Entry) -> None:
        for name in entry.goal.context.names:
            users = self.uses.get(name)
            if users is not None:
                users[entry] = None

    def _link(self, prev: _Entry, fresh: list[_Entry], after: _Entry | None) -> None:
        for entry in fresh:
            entry.prev, prev.next = prev, entry
            prev = entry
        prev.next = after
        if after is not None:
            after.prev = prev

    def _drop(self, entry: _Entry, fresh: list[_Entry]) -> None:
        """Put fresh in place of entry, which no atom is used by any more."""
        self._link(entry.prev, fresh, entry.next)
        for name in entry.goal.context.names:
            users = self.uses.get(name)
            if users is not None:
                users.pop(entry, None)

    def _bind(self, bound: dict[str, Term]) -> None:
        """Put each term of bound in for its atom in the entries that use
        it, and keep it for the validation.  An entry whose variables this
        does not send to distinct variables is attacked again."""
        # an output may use an atom of an earlier entry answered in the
        # same round; put those in first
        while True:
            pending = [n for n, t in bound.items() if any(v.name in bound for v in _free(t))]
            if not pending:
                break
            for name in pending:
                term = bound[name]
                image = {v.name: bound.get(v.name, v) for v in _free(term)}
                bound[name] = subst_apply(term, _Image(image))
        self.bound.extend(bound.items())
        users: dict[_Entry, None] = {}
        for name in bound:
            users.update(self.uses.pop(name))
        for entry in users:
            support = entry.goal.context
            image = {n: bound.get(n) or Var(n, s) for n, s in support.entries}
            entry.goal = self._moved(entry.goal, image, image)
            self._use(entry)
            renamed = len(entry.goal.context) == len(image) and all(
                t.__class__ is Var for t in image.values()
            )
            if not renamed:
                entry.refusal = None
                self.work[entry] = None

    def _named(self) -> tuple[TeleBuilder, dict[str, Term]]:
        """The goals, in order and under their names, in a builder, and
        the variable each name of the root and each atom stands for."""
        structure = self.structure
        names: dict[str, Term] = {n: Var(n, sort) for n, sort in self.root.entries}
        b = TeleBuilder(structure, self.root)
        entry = self.head.next
        while entry is not None:
            move = _Reindexing(b.prefix, entry.goal.context, names)
            named = b.push(structure.subst(entry.goal, move), entry.stems)
            names.update(zip([a.name for a in entry.atoms], named))
            entry = entry.next
        return b, names

    def _validation(
        self, b: TeleBuilder, names: dict[str, Term], known: int
    ) -> Substitution:
        """The validation of the goals named in b, under names (_named),
        with the first known terms of bound that it reaches put in for
        their atoms, which names gains.  A term uses only atoms standing
        or bound after it, so a pass forward finds the atoms reached, and
        the last is put in first."""
        reached = {v.name for t in self.outputs for v in _free(t)}
        for name, term in self.bound[:known]:
            if name in reached:
                reached.update(v.name for v in _free(term))
        move = _Image(names)
        for name, term in reversed(self.bound[:known]):
            if name in reached:
                names[name] = subst_apply(term, move)
        return Substitution(b.prefix, self.target, _substituted(self.outputs, names))

    def state(self) -> Subgoals:
        """The run's state, its binders named as a flattening names them."""
        b, names = self._named()
        return b.close(self._validation(b, names, len(self.bound)))


def id_tactic(structure: JudgmentStructure) -> Tactic:
    return _Id(structure)


def from_rule(
    rule: Any, structure: JudgmentStructure | None = None, heads: Heads | None = None
) -> Tactic:
    """The tactic that runs rule; given the structure of its goals, a run
    of the tactic alone checks the answer's target.  Given the rule's
    entry in its logic's index (rule.py), the tactic answers FAIL without
    running the rule on a goal the entry excludes."""
    if heads is not None and structure is None:
        raise TypeError("a rule indexed by goal head needs its structure")
    return _Rule(rule, structure, heads)


def orelse(t1: Tactic, t2: Tactic) -> Tactic:
    """Commit to t1 whenever it answers with subgoals, and fall to t2
    when it refuses (Fail or Bot).  An answer that is not a proof state
    raises TheoryError where the rule or callable gives it, so t2 never
    sees it."""
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
    Each approximant runs from scratch, at step n + 1 for the n-th.
    """
    return _Fix(transform)


def repeat(structure: JudgmentStructure, t: Tactic) -> Tactic:
    """Apply t to the goal and recursively to all residual subgoals.

    This is fix(rec -> try(t; all(rec))).  With t natural, built from
    rules, id and `|` only, the race of approximants runs as one
    depth-first pass (_walk).  Such a t answers at once and is pure, so
    approximant n either answers at once or never: it stops at the first
    goal n levels down.  Approximant n + 1 does what n did up to that
    goal, with the same answers, so the pass suspends there as one Later
    and goes one level deeper from there when forced, and never redoes a
    subtree.  The steps and the state are those of the race: at step
    n + 1 the pass does what approximant n does.  Forcing one of its
    Laters twice resumes the same pass twice, with equal answers.  The
    race shows the trace hook each approximant's answers, so approximant
    n + 1 shows again what n showed, then more: the pass records what
    each goal and each level hands to the level above, and each step
    shows the record again, if a hook is installed, before it resumes.
    Watched or not, the pass makes the same rule calls.  A goal t refuses
    stands, without a unit state, and a goal of a shape t refused before
    in the pass is refused without t running (_attack).  The record is
    the flattening of the pass's answers as builder steps, and the pass
    splices it once, at its end (state_spliced).  Flattening is
    associative, so that is the race's state, and each goal is spliced
    once, not once per level above it.
    """
    if _is_natural(t):
        return _Star(structure, t)
    return _Fix(lambda rec: try_tactic(structure, then_tactic(structure, t, rec)), structure)


def _next_round(
    structure: JudgmentStructure,
    state: Subgoals,
    answers: ProofState,
) -> tuple[ProofState, bool]:
    """The state after one round of a repeated multitactic, and whether
    the repetition stops there.

    A round is heal, flatten, compare: the flattening puts each refused
    goal back in place, and the repetition stops when the result equals
    the state before it up to renaming.
    """
    if isinstance(answers, (Fail, Bot)):
        return state, True
    advanced = state_mul(structure, answers, state.telescope)
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

    Over `all_mt(t)` with t natural, on goals that are not states, the
    rounds run over a telescope of their own (_Rounds): its binders are
    atoms, variables no goal text can name, and each goal sits over the
    context of its own free variables.  A round attacks only the new goals
    and the goals whose variables the round before sent to something other
    than distinct variables.  A goal refused before and only renamed since
    keeps its refusal without t running on it: t answers at once, and
    every rule is support-local (rule.py).  For the same reason a goal of
    a shape refused before in the run is refused without t running
    (_attack).  A round splices only the entries that answered with
    subgoals, and puts their outputs only into the goals that use them, so
    it costs the goals that answered and those that depend on them.  Each
    output is kept with its atom (bound), and the validation is put
    together once, where the state is named.  A round that keeps the
    number of goals names them before and after and compares them as
    `state_alpha_eq` does, building the validations only if the goals
    match.  Binders are named only where a name is read: there, in the
    stable state handed back and, while a trace hook is installed, in each
    round's goals, named before the round attacks any.  After the attacks
    the hook sees those goals in telescope order, each with its answer or
    with its standing refusal.  So the rounds, their states and the trace
    are those of a full sweep, and a watched round attacks as an unwatched
    one does.
    """
    return _Repeat(structure, mt)
