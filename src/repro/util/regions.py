"""Shared rectangle/interval overlap predicates.

One definition of "two regions overlap" serves every consumer — the
dynamic race detector (:mod:`repro.sim.race`), the concurrent executor's
host-coherence edges (:mod:`repro.execution.concurrent`), the task-graph
dependency wiring (:mod:`repro.runtime.task`), the placement pass's
edge payloads (:mod:`repro.dist.placement`) and the static plan verifier
(:mod:`repro.analysis.verify`) — so they can never disagree about what
constitutes a conflict.

The predicates are strict about degenerate regions: a zero-size interval
(``lo == hi``) occupies no elements and therefore overlaps nothing, and
adjacent tiles (``a1 == b0``) share no elements either. The naive
``a0 < b1 and b0 < a1`` test gets the adjacent case right but wrongly
reports an empty interval sitting strictly inside a non-empty one as an
overlap; requiring both intervals to be non-empty fixes that.
"""

from __future__ import annotations


def intervals_overlap(a0: int, a1: int, b0: int, b1: int) -> bool:
    """Whether half-open ``[a0, a1)`` and ``[b0, b1)`` share any point.

    Empty intervals (``a0 >= a1`` or ``b0 >= b1``) never overlap anything;
    adjacent intervals (``a1 == b0``) do not overlap.
    """
    return a0 < a1 and b0 < b1 and a0 < b1 and b0 < a1


def rects_overlap(
    a_rows: tuple[int, int],
    a_cols: tuple[int, int],
    b_rows: tuple[int, int],
    b_cols: tuple[int, int],
) -> bool:
    """Whether two half-open rectangles share any element.

    Each rectangle is ``(row0, row1), (col0, col1)``; a rectangle empty in
    either axis overlaps nothing.
    """
    return intervals_overlap(*a_rows, *b_rows) and intervals_overlap(
        *a_cols, *b_cols
    )


# -- access records and host regions ---------------------------------------------
#
# A device access is ``(handle, row0, row1, col0, col1, is_write)`` (see
# :func:`repro.sim.scheduler.device_access`); a host region is anything
# with ``matrix``/``row0``/``row1``/``col0``/``col1`` (a
# :class:`~repro.host.tiled.HostRegion`). These stay plain module-level
# functions: the task-graph builder calls them in its hot loop.


def accesses_conflict(a: tuple, b: tuple) -> bool:
    """Two device accesses touch overlapping elements of one buffer and at
    least one of them writes — a hazard that needs an ordering edge."""
    if a[0] != b[0] or not (a[5] or b[5]):
        return False
    return rects_overlap((a[1], a[2]), (a[3], a[4]), (b[1], b[2]), (b[3], b[4]))


def host_regions_conflict(a, b) -> bool:
    """Two rectangles of the same host matrix overlap (callers decide
    whether a writer is involved)."""
    if a.matrix is not b.matrix:
        return False
    return rects_overlap(
        (a.row0, a.row1), (a.col0, a.col1), (b.row0, b.row1), (b.col0, b.col1)
    )


def overlap_elements(
    a_rows: tuple[int, int],
    a_cols: tuple[int, int],
    b_rows: tuple[int, int],
    b_cols: tuple[int, int],
) -> int:
    """Number of elements two half-open rectangles share (0 if disjoint)."""
    rows = min(a_rows[1], b_rows[1]) - max(a_rows[0], b_rows[0])
    cols = min(a_cols[1], b_cols[1]) - max(a_cols[0], b_cols[0])
    return rows * cols if rows > 0 and cols > 0 else 0
