"""Walk the dependent pair proof one refinement at a time.

The goal sig(x. eq(x, tt), top) asks for a witness of top together with
evidence that the witness equals tt.  Opening it yields two subgoals in
a telescope: the second goal mentions the first goal's output, so the
reflexivity step only applies after the witness has been filled in.
The demo shows the telescope before and after the first discharge, the
early rejection, and the final extract.
"""

from __future__ import annotations

import sys

from refkit.logics import dep
from refkit.state import (
    Bot,
    Subgoals,
    pretty_state,
    state_mul,
    tele_goals,
)
from refkit.tactic import Resolved, each_mt, from_rule, run_delayed
from refkit.theory import Context, render_term

EMPTY = Context(())


def show(title: str, state) -> None:
    print(f"--- {title}")
    print(pretty_state(dep.STRUCTURE, state))
    print()


def main() -> int:
    goal = dep.parse_goal("true sig(x. eq(x, tt), top)")
    print(f"goal: {dep.STRUCTURE.render(goal)}")
    print()

    opened = dep.RULES["sig_i"].run(EMPTY, goal)
    assert isinstance(opened, Subgoals)
    show("after sig_i", opened)

    # reflexivity on the open equation is undetermined: the two sides
    # are a variable and tt, not yet the same expression
    _, second = tele_goals(opened.telescope)[1]
    early = dep.RULES["eq_refl"].run(second.context, second)
    assert isinstance(early, Bot)
    print("eq_refl before the witness is known: BOT")
    print()

    first_only = each_mt(dep.STRUCTURE, (from_rule(dep.RULES["top_i"]),))
    stepped = run_delayed(first_only(EMPTY, opened), 100)
    assert isinstance(stepped, Resolved)
    advanced = state_mul(dep.STRUCTURE, stepped.value)
    assert isinstance(advanced, Subgoals)
    show("after discharging the witness", advanced)

    _, closed = tele_goals(advanced.telescope)[0]
    print(f"the equation became: {dep.STRUCTURE.render(closed)}")
    print()

    rest = each_mt(dep.STRUCTURE, (from_rule(dep.RULES["eq_refl"]),))
    stepped = run_delayed(rest(EMPTY, advanced), 100)
    assert isinstance(stepped, Resolved)
    final = state_mul(dep.STRUCTURE, stepped.value)
    assert isinstance(final, Subgoals)
    show("after reflexivity", final)

    (extract,) = final.validation.terms
    print(f"extract: {render_term(extract)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
