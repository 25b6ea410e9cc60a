"""Time one flattening over n goals, per spliced goal, in three families.

Two are the step a breadth-first round takes after every goal answered:
`state_mul` with the round's state as `before`.  The goals form a chain,
`add 0 1`, `add n 1`, `add n'1 1`, ..., so each one mentions the binder
of the one before it and every move is a renaming.

- refused: every entry refuses its goal (Bot), so each goal is put back
  in place, moved onto the new flat context.
- unit: every entry answers with its goal's unit state, so each inner
  telescope is spliced in and its validation carried into the rest.

The third is the one flattening that ends a depth-first star's pass.

- nested: `state_flatten` of an answer nested n levels deep and shaped
  like a left comb: each level holds the level below it, then an add
  goal on the level below's output, which stands.  The walk goes down
  to the innermost level and back up over its own stack, and splices
  each goal once, however deep it sits.

The rows show how the cost of a splice grows with the context.  Reading
the moved goal's variables, naming its binder, consing it onto the flat
context and checking that the goal's context is its scope all cost the
same at every size, so the two sizes of a family should read about the
same; what differs is that the larger flattening runs over a larger
heap, for the caches and the cycle collector.  Each row is the best of
at least three flattenings and of BUDGET seconds of them.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Callable

from refkit.logics import arith
from refkit.state import (
    Bot,
    Nested,
    Subgoals,
    TeleBuilder,
    TeleCons,
    TeleNil,
    state_flatten,
    state_mul,
    state_unit,
    tele_goals,
)
from refkit.theory import Context, Substitution, Var

J = arith.STRUCTURE
SIZES = (100, 1000)
BUDGET = 1.0  # seconds of flattenings per size

def chain(n: int) -> Subgoals:
    """A state of n chained add goals."""
    b = TeleBuilder(J, Context())
    last = arith.nat(0)
    for _ in range(n):
        (last,) = b.push(arith.AddGoal(b.prefix, last, arith.nat(1)), ("n",))
    return b.close(Substitution(b.prefix, arith.ADD_OUTPUT, (last,)))


def answered(state: Subgoals, answer: Callable[[Any], Any]) -> Subgoals:
    """The round answering each goal of state by answer(goal)."""
    entries = []
    tele = state.telescope
    while isinstance(tele, TeleCons):
        entries.append((tele.names, answer(tele.goal)))
        tele = tele.rest
    answers: object = TeleNil(tele.context)
    for names, result in reversed(entries):
        answers = TeleCons(names, result, answers)
    return Subgoals(answers, state.validation)


def round_of(answer: Callable[[Any], Any]) -> Callable[[int], Callable[[], Any]]:
    """The flattening of a round over chain(n) that answers each goal by
    answer(goal)."""

    def flattening(n: int) -> Callable[[], Any]:
        state = chain(n)
        return partial(state_mul, J, answered(state, answer), state.telescope)

    return flattening


def nested_comb(n: int) -> Nested:
    """An answer nested n levels deep, shaped like a left comb."""
    num, root = arith.NUM, Context()
    below = Context((("n", num),))
    ctx = Context((("n", num), ("m", num)))
    first = arith.AddGoal(root, arith.nat(0), arith.nat(1))
    answer = Nested(
        root,
        TeleCons(("n",), first, TeleNil(below)),
        Substitution(below, arith.ADD_OUTPUT, (Var("n", num),)),
    )
    goal = arith.AddGoal(below, Var("n", num), arith.nat(1))
    outputs = Substitution(ctx, arith.ADD_OUTPUT, (Var("m", num),))
    for _ in range(n):
        tele = TeleCons(("n",), answer, TeleCons(("m",), goal, TeleNil(ctx)))
        answer = Nested(root, tele, outputs)
    return answer


FAMILIES: dict[str, Callable[[int], Callable[[], Any]]] = {
    "refused": round_of(lambda goal: Bot(goal.context, arith.ADD_OUTPUT)),
    "unit": round_of(lambda goal: state_unit(J, goal)),
    "nested": lambda n: partial(state_flatten, J, nested_comb(n)),
}


def main() -> int:
    print(f"{'family':>8} {'goals':>6} {'runs':>5} {'us/goal':>9}")
    for family, flattening in FAMILIES.items():
        for n in SIZES:
            flatten = flattening(n)
            best, runs, spent = float("inf"), 0, 0.0
            while runs < 3 or spent < BUDGET:
                start = time.perf_counter()
                flat = flatten()
                elapsed = time.perf_counter() - start
                best = min(best, elapsed)
                spent += elapsed
                runs += 1
            assert isinstance(flat, Subgoals)
            goals = len(tele_goals(flat.telescope))
            print(f"{family:>8} {goals:>6} {runs:>5} {best / goals * 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
