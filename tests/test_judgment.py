"""Judgment structure interface."""

import pytest

from refkit.judgment import require_boundary
from refkit.logics import arith
from refkit.theory import Context, ContextMismatch, Substitution

J = arith.STRUCTURE


def _goal(ctx=Context(())):
    return arith.EvalGoal(ctx, arith.num(3))


def test_require_boundary_accepts_matching_target():
    ctx = Context((("g0", arith.NUM),))
    goal = _goal(ctx)
    s = Substitution(Context(()), ctx, (arith.nat(1),))
    require_boundary(goal, s)


def test_require_boundary_rejects_mismatch():
    goal = _goal(Context(()))
    bad = Substitution(Context(()), Context((("g0", arith.NUM),)), (arith.nat(1),))
    with pytest.raises(ContextMismatch):
        require_boundary(goal, bad)


def test_plain_judgments_have_no_buried_obstruction():
    assert J.obstruction(_goal()) is None
