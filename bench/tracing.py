"""In-memory spans around the benchmark's calls into latticejost.

A span records its name, the span that caused it, the operation it belongs
to, and its start and end.  Nothing is written until the run ends.  There is
one thread and no queue, so no span ever waits on another: every layer's
time is busy time.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    op: int  # index of the root span of the operation
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.notes: dict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        op = self.spans[self._stack[0]].op if self._stack else index
        self.spans.append(Span(name, parent, op, time.perf_counter()))
        self._stack.append(index)
        try:
            yield
        except BaseException:
            self.spans[index].error = True
            raise
        finally:
            self.spans[index].end = time.perf_counter()
            self._stack.pop()

    def note(self, name: str, value: float) -> None:
        """A count measured at a layer boundary."""
        self.notes[name].append(value)

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus the time its children cover."""
        child_time = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: dict[str, list[float]] = defaultdict(list)
        for s, covered in zip(self.spans, child_time):
            out[s.name].append(s.end - s.start - covered)
        return out

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def errors(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.error)
