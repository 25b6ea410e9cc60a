"""An in-memory span recorder and the self-time arithmetic over its spans.

A span is `(name, start, end, parent)`: `parent` is the index of the
enclosing span in the same list, or -1 for a root.  Spans are appended
when they open, so a parent always comes before its children.  The
recorder keeps the spans of the current request (one goal) in memory;
`take` hands them over for summarising once the request is done.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Sequence


@dataclass
class Totals:
    calls: int = 0
    # time inside outermost spans of this name: a span nested in another
    # span of the same name (recursion) is not counted twice
    total_s: float = 0.0
    # span durations minus the part of each covered by its child spans
    self_s: float = 0.0


def summarise(spans: Sequence[Sequence[Any]]) -> dict[str, Totals]:
    """Per-name call counts, inclusive time and self time."""
    self_s = [end - start for _, start, end, _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            self_s[parent] -= end - start
    out: dict[str, Totals] = {}
    open_spans: list[int] = []
    active: Counter[str] = Counter()
    for i, (name, start, end, parent) in enumerate(spans):
        while open_spans and open_spans[-1] != parent:
            active[spans[open_spans.pop()][0]] -= 1
        totals = out.setdefault(name, Totals())
        totals.calls += 1
        totals.self_s += self_s[i]
        if not active[name]:
            totals.total_s += end - start
        open_spans.append(i)
        active[name] += 1
    return out


def merge(into: dict[str, Totals], more: dict[str, Totals]) -> None:
    for name, t in more.items():
        acc = into.setdefault(name, Totals())
        acc.calls += t.calls
        acc.total_s += t.total_s
        acc.self_s += t.self_s


class Recorder:
    """Wraps callables so that each call records a span."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        observe: Callable[[Any], None] | None = None,
    ) -> Callable[..., Any]:
        """`fn` recording a span per call; `observe` sees each result."""
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> list[list[Any]]:
        """The spans recorded so far; the recorder starts afresh."""
        if self._stack:
            raise RuntimeError("spans are still open")
        out = self.spans[:]
        self.spans.clear()
        return out


@contextmanager
def patched(replacements: Iterable[tuple[Any, str, Any]]) -> Iterator[None]:
    """Set each `(owner, attribute, value)` for the duration of the block.

    Every attribute set is put back on the way out, also when the block
    (or a later replacement) raises.
    """
    undo: list[tuple[Any, str, Any]] = []
    try:
        for owner, attr, value in replacements:
            undo.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
