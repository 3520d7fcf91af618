"""Span recording and the arithmetic the benchmark reports from it.

A span is (name, unit, parent, start, end).  Each unit of a workload
opens one span named ``unit``; every public call the benchmark makes
into the program during that unit is a child span named
``<module>.<function>``.  Spans are kept in memory and written out when
the run ends.
"""

from __future__ import annotations

import gzip
import json
import math
from time import perf_counter

UNIT = "unit"


def direct(name, fn, *args, **kwargs):
    """The untraced form of `Tracer.call`: just the call."""
    return fn(*args, **kwargs)


class Tracer:
    """In-memory span recorder.  ``spans[k]`` is span id k."""

    def __init__(self):
        self.spans: list[list] = []
        self._unit = None
        self._parent = None

    def begin_unit(self, uid: int) -> None:
        self._unit = uid
        self._parent = len(self.spans)
        self.spans.append([UNIT, uid, None, perf_counter(), None])

    def end_unit(self) -> float:
        """Close the open unit span and return its wall time in seconds."""
        span = self.spans[self._parent]
        span[4] = perf_counter()
        self._unit = self._parent = None
        return span[4] - span[3]

    def call(self, name, fn, *args, **kwargs):
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append([name, self._unit, self._parent, start, perf_counter()])

    def write(self, path) -> None:
        """Write the spans as gzipped JSON lines, times in seconds from the first span."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with gzip.open(path, "wt") as fh:
            for k, (name, unit, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": k, "name": name, "unit": unit, "parent": parent,
                                     "start": start - t0, "end": end - t0}) + "\n")


def _covered(intervals) -> float:
    """Total length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children are clipped to their parent's interval, so overlapping or
    overhanging children are never subtracted twice or beyond the parent.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, unit, parent, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for k, (name, unit, parent, start, end) in enumerate(spans):
        kids = [(max(s, start), min(e, end)) for s, e in children.get(k, ()) if min(e, end) > max(s, start)]
        out.append((end - start) - _covered(kids))
    return out


def self_time_by_unit(spans) -> dict[int, dict[str, float]]:
    """Per unit, the summed self time of each span name (the unit span
    itself appears as ``unit``: the time no layer span covers)."""
    by_unit: dict[int, dict[str, float]] = {}
    for span, own in zip(spans, self_times(spans)):
        per_name = by_unit.setdefault(span[1], {})
        per_name[span[0]] = per_name.get(span[0], 0.0) + own
    return by_unit


def percentile(values, q: float) -> float:
    """The q-th percentile by linear interpolation between closest ranks
    (numpy's default rule): rank q/100 * (n - 1) of the sorted values."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank {q} outside [0, 100]")
    pos = q / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values, q: float):
    """`percentile`, or None unless at least ten values lie beyond rank q
    (for q = 90 that needs 100 values)."""
    if len(values) * (100.0 - q) / 100.0 < 10.0:
        return None
    return percentile(values, q)
