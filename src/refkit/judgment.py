"""Judgment structures: the interface a logic exposes to the kernel.

A judgment is any value carrying a `context` attribute, whose class
names its fields in `__match_args__` as a dataclass does; the structure
object says how to check it, substitute into it, read off the context of
outputs it synthesizes, and compare candidate results.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

from .theory import App, Context, ContextMismatch, Substitution, Var


class JudgmentStructure(ABC):
    """Operations a judgment form must support to drive refinement."""

    @abstractmethod
    def check(self, judgment: Any) -> None:
        """Raise if the judgment is malformed over its own context."""

    @abstractmethod
    def subst(self, judgment: Any, s: Substitution) -> Any:
        """Reindex a judgment over s.target to one over s.source."""

    @abstractmethod
    def output(self, judgment: Any) -> Context:
        """The context of evidence a proof of this judgment synthesizes."""

    def approx(self, a: Any, b: Any) -> bool:
        """Information order on judgments; discrete by default."""
        return a == b

    def alpha_eq(self, a: Any, b: Any) -> bool:
        """Equality up to bound-name renaming inside the judgment.

        First-order judgments have no internal binders, so plain
        structural equality is the default.
        """
        return a == b

    def obstruction(self, judgment: Any) -> str | None:
        """The leftmost absorbing answer buried in the judgment, if any.

        Plain judgments are never absorbing; states override this, and
        flattening uses it to keep collapse order independent of the
        order the layers are flattened in.
        """
        return None

    @abstractmethod
    def render(self, judgment: Any) -> str:
        """Human-readable form of the judgment."""


def require_boundary(judgment: Any, s: Substitution) -> None:
    if judgment.context != s.target:
        raise ContextMismatch(
            "substitution target does not match the judgment context"
        )


def goal_support(goal: Any) -> set[str]:
    """The names free in a goal: the free variables of its term fields,
    read through its class's `__match_args__`."""
    names = set()
    for field in goal.__match_args__:
        value = getattr(goal, field)
        cls = value.__class__
        if cls is Var:
            names.add(value.name)
        elif cls is App:
            names.update([v.name for v in value.free])
    return names
