"""Rescaling wall-clock times to a reference machine speed.

On a small shared machine the speed of the processor drifts: the same
pure-Python loop can take 1.6 times as long for tens of seconds, on
every core at once, and no median within a run removes a drift that
outlasts it.  So next to each timed call the benchmark times a fixed
piece of work that does not touch refkit (building and substituting
through a tree of frozen dataclasses, the kind of work refkit does), and
rescales each time to what it would be on a machine where that piece
of work takes `REFERENCE_S`.  A change to refkit moves the rescaled
time as much as the wall time; a change of machine speed mostly does
not.  The raw wall times are printed next to the rescaled ones.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

REFERENCE_S = 0.004
# kernel samples around a timed call that set its speed estimate
WINDOW = 5


@dataclass(frozen=True)
class _Node:
    op: str
    args: tuple


def _subst(t: _Node, env: dict[str, _Node]) -> _Node:
    if not t.args:
        return env.get(t.op, t)
    return _Node(t.op, tuple(_subst(a, env) for a in t.args))


def kernel_s() -> float:
    """Seconds the fixed calibration work takes right now."""
    start = time.perf_counter()
    env = {f"v{i}": _Node(str(i), ()) for i in range(16)}
    tree = _Node("v0", ())
    for i in range(1, 200):
        tree = _Node("+", (tree, _Node(f"v{i % 24}", ())))
    for _ in range(4):
        if _subst(tree, env) != _subst(tree, env):
            raise AssertionError("substitution is not deterministic")
    return time.perf_counter() - start


def rescale(times: list[float], kernels: list[float]) -> list[float]:
    """Each time at reference speed; kernels[i] was taken next to times[i]."""
    half = WINDOW // 2
    return [
        t * REFERENCE_S / statistics.median(kernels[max(0, i - half) : i + half + 1])
        for i, t in enumerate(times)
    ]
