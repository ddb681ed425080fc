"""In-memory spans recorded around calls into the program's layers.

The benchmark traces from its own files: :func:`patch_function` and
:func:`patch_method` swap a layer's entry point for a wrapper built by
:meth:`Tracer.wrap`, which records one span per call — name, start, end,
the index of the enclosing span and the id of the benchmark run — into a
list kept in memory until the run ends.  A layer's self time is its span
duration minus the part of that interval covered by its direct children
(:func:`self_times`).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

#: Field positions of a span record (a list, for cheap in-place closing).
NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    """Collects spans and per-layer counts for one traced worker."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.run_id = ""
        self.counts: dict[str, int] = defaultdict(int)
        #: wrappers call straight through while False
        self.enabled = True

    def begin(self, run_id: str) -> int:
        """Start a new benchmark run; returns the index of its first span."""
        self.run_id = run_id
        self.counts.clear()
        return len(self.spans)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording a ``name`` span per call; ``on_result(args,
        result)`` sees every traced call that returned."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            record = [name, clock(), 0.0, stack[-1] if stack else -1, tracer.run_id]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = clock()
                stack.pop()
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced


def patch_function(module, name: str, make) -> None:
    """Replace ``module.name`` by ``make(original)`` in every loaded
    ``repro`` module that bound the original (``from x import name``)."""
    original = getattr(module, name)
    replacement = make(original)
    for loaded in list(sys.modules.values()):
        if not getattr(loaded, "__name__", "").startswith("repro"):
            continue
        if getattr(loaded, name, None) is original:
            setattr(loaded, name, replacement)


def patch_method(cls, name: str, make) -> None:
    """Replace the method ``cls.name`` by ``make(original)``."""
    setattr(cls, name, make(cls.__dict__[name]))


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    open_start = open_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if open_end is None or start > open_end:
            if open_end is not None:
                total += open_end - open_start
            open_start, open_end = start, end
        else:
            open_end = max(open_end, end)
    if open_end is not None:
        total += open_end - open_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Per-span duration minus the time covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for record in spans:
        if record[PARENT] >= 0:
            children[record[PARENT]].append((record[START], record[END]))
    return [
        record[END]
        - record[START]
        - union_length(children.get(index, ()), record[START], record[END])
        for index, record in enumerate(spans)
    ]


def inclusive_times(spans: list[list], run_id: str) -> dict[str, float]:
    """Per-name total duration within one run, counting a span nested
    inside another span of the same name only once (through its outermost
    ancestor)."""
    totals: dict[str, float] = defaultdict(float)
    for record in spans:
        if record[RUN] != run_id:
            continue
        parent = record[PARENT]
        while parent >= 0 and spans[parent][NAME] != record[NAME]:
            parent = spans[parent][PARENT]
        if parent < 0:
            totals[record[NAME]] += record[END] - record[START]
    return totals
