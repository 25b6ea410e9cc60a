"""Time one flattening over n goals, per spliced goal, in two families.

This is the step a breadth-first round takes after every goal answered:
`state_mul` with the round's state as `before`.  The goals form a chain,
`add 0 1`, `add n 1`, `add n'1 1`, ..., so each one mentions the binder
of the one before it and every move is a renaming.

- refused: every entry refuses its goal (Bot), so each goal is put back
  in place, moved onto the new flat context.
- unit: every entry answers with its goal's unit state, so each inner
  telescope is spliced in and its validation carried into the rest.

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
from typing import Any, Callable

from refkit.logics import arith
from refkit.state import (
    Bot,
    Subgoals,
    TeleBuilder,
    TeleCons,
    TeleNil,
    state_mul,
    state_unit,
)
from refkit.theory import Context, Substitution

J = arith.STRUCTURE
SIZES = (100, 1000)
BUDGET = 1.0  # seconds of flattenings per size

FAMILIES: dict[str, Callable[[Any], Any]] = {
    "refused": lambda goal: Bot(goal.context, arith.ADD_OUTPUT),
    "unit": lambda goal: state_unit(J, goal),
}


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


def main() -> int:
    print(f"{'family':>8} {'goals':>6} {'runs':>5} {'us/goal':>9}")
    for family, answer in FAMILIES.items():
        for n in SIZES:
            state = chain(n)
            answers = answered(state, answer)
            best, runs, spent = float("inf"), 0, 0.0
            while runs < 3 or spent < BUDGET:
                start = time.perf_counter()
                flat = state_mul(J, answers, state.telescope)
                elapsed = time.perf_counter() - start
                best = min(best, elapsed)
                spent += elapsed
                runs += 1
            assert isinstance(flat, Subgoals)
            print(f"{family:>8} {n:>6} {runs:>5} {best / n * 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
