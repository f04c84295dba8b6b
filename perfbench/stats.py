"""Sample statistics and span self-time attribution shared by the
benchmark runner and the compare mode."""

from __future__ import annotations

import statistics
from collections import defaultdict


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def supported_percentile(n: int) -> int | None:
    """The highest of p50/p90/p99 with at least ten samples beyond it,
    or None when even the median has fewer (n < 20)."""
    for pct in (99, 90, 50):
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total, end = 0.0, None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans) -> tuple[dict[int, float], dict[int, list]]:
    """Per span id: duration minus the part of it its children cover.

    Returns ``(self_s, children)``; events (zero-length spans) are
    skipped. Children are clipped to their parent's interval, so a layer
    is never charged for time outside the span that called it.
    """
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent_id is not None and not s.is_event:
            children[s.parent_id].append(s)
    out: dict[int, float] = {}
    for s in spans:
        if s.is_event:
            continue
        kids = [
            (max(c.start_s, s.start_s), min(c.end_s, s.end_s))
            for c in children.get(s.span_id, ())
        ]
        out[s.span_id] = s.duration_s - _covered([iv for iv in kids if iv[1] > iv[0]])
    return out, children
