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

- pass: `state_spliced` of the steps of a pass n levels deep, shaped
  like a left comb: each level answers with the goal the level below
  answered, then an add goal on its output, which stands.  The steps
  come in the order the pass took them, innermost first, and the loop
  splices each goal once, however deep it sits.

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
    Subgoals,
    TeleBuilder,
    TeleCons,
    TeleNil,
    state_mul,
    state_spliced,
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


def comb_pass(n: int) -> tuple[Subgoals, Any]:
    """The answer to its goal and the steps of a pass n levels deep,
    shaped like a left comb."""
    num, root = arith.NUM, Context()
    below = Context((("n", num),))
    ctx = Context((("n", num), ("m", num)))
    first = arith.AddGoal(root, arith.nat(0), arith.nat(1))
    goal = arith.AddGoal(below, Var("n", num), arith.nat(1))
    ended = Subgoals(
        TeleCons(("n",), first, TeleNil(below)),
        Substitution(below, arith.ADD_OUTPUT, (Var("n", num),)),
    )
    end = below
    # every level above the innermost answers alike
    level = Subgoals(
        TeleCons(("n",), first, TeleCons(("m",), goal, TeleNil(ctx))),
        Substitution(ctx, arith.ADD_OUTPUT, (Var("m", num),)),
    )
    steps: Any = ((None, (first, ("n",))), None)
    for _ in range(n):
        steps = ((None, (ended, end, ("n",))), steps)
        steps = ((None, (goal, ("m",))), steps)
        ended, end = level, ctx
    return level, steps


FAMILIES: dict[str, Callable[[int], Callable[[], Any]]] = {
    "refused": round_of(lambda goal: Bot(goal.context, arith.ADD_OUTPUT)),
    "unit": round_of(lambda goal: state_unit(J, goal)),
    "pass": lambda n: partial(state_spliced, J, *comb_pass(n)),
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
