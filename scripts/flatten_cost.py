"""Time one healing flattening over n refused goals, per spliced goal.

This is the step a breadth-first round takes after every goal refused:
`state_mul` with the round's state as `before`, so each Fail or Bot
entry puts its goal back in place, moved onto the new flat context.  The
goals form a chain, `add 0 1`, `add n 1`, `add n'1 1`, ..., so each one
mentions the binder of the one before it and every move is a renaming.
The rows show how the cost of a splice grows with the context.  Reading
the moved goal's variables costs the same at every size; what still
grows is work done in C per goal: the new flat context, which copies
the index of the one before it, and the check that the goal's context
holds exactly the names in scope.  Each row is the best of at least
three flattenings and of BUDGET seconds of them.
"""

from __future__ import annotations

import time

from refkit.logics import arith
from refkit.state import Bot, Subgoals, TeleBuilder, TeleCons, TeleNil, state_mul
from refkit.theory import Context, Substitution

J = arith.STRUCTURE
SIZES = (100, 1000)
BUDGET = 1.0  # seconds of flattenings per size


def refused_chain(n: int) -> tuple[Subgoals, Subgoals]:
    """A state of n chained add goals, and the round refusing all of them."""
    b = TeleBuilder(J, Context())
    last = arith.nat(0)
    for _ in range(n):
        (last,) = b.push(arith.AddGoal(b.prefix, last, arith.nat(1)), ("n",))
    state = b.close(Substitution(b.prefix, arith.ADD_OUTPUT, (last,)))
    entries = []
    tele = state.telescope
    while isinstance(tele, TeleCons):
        entries.append((tele.names, Bot(tele.goal.context, arith.ADD_OUTPUT)))
        tele = tele.rest
    answers: object = TeleNil(tele.context)
    for names, answer in reversed(entries):
        answers = TeleCons(names, answer, answers)
    return state, Subgoals(answers, state.validation)


def main() -> int:
    print(f"{'goals':>6} {'runs':>5} {'us/goal':>9}")
    for n in SIZES:
        state, answers = refused_chain(n)
        best, runs, spent = float("inf"), 0, 0.0
        while runs < 3 or spent < BUDGET:
            start = time.perf_counter()
            healed = state_mul(J, answers, state.telescope)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            spent += elapsed
            runs += 1
        assert isinstance(healed, Subgoals)
        print(f"{n:>6} {runs:>5} {best / n * 1e6:>9.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
