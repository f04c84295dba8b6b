"""Shared rectangle/interval overlap predicates and the region index.

One definition of "two regions overlap" serves every consumer — the
dynamic race detector (:mod:`repro.sim.race`), the placement pass's
edge payloads (:mod:`repro.dist.placement`), the static plan verifier
(:mod:`repro.analysis.verify`) and :class:`RegionIndex`, which derives
the ordering edges of the task graph (:mod:`repro.runtime.task`) and of
the concurrent executor's host coherence
(:mod:`repro.execution.concurrent`) — so they can never disagree about
what constitutes a conflict.

The predicates are strict about degenerate regions: a zero-size interval
(``lo == hi``) occupies no elements and therefore overlaps nothing, and
adjacent tiles (``a1 == b0``) share no elements either. The naive
``a0 < b1 and b0 < a1`` test gets the adjacent case right but wrongly
reports an empty interval sitting strictly inside a non-empty one as an
overlap; requiring both intervals to be non-empty fixes that.
"""

from __future__ import annotations

from typing import Callable, Hashable


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


# -- access records ---------------------------------------------------------------
#
# A device access is ``(handle, row0, row1, col0, col1, is_write)`` (see
# :func:`repro.sim.scheduler.device_access`).


def accesses_conflict(a: tuple, b: tuple) -> bool:
    """Two device accesses touch overlapping elements of one buffer and at
    least one of them writes — a hazard that needs an ordering edge."""
    if a[0] != b[0] or not (a[5] or b[5]):
        return False
    return rects_overlap((a[1], a[2]), (a[3], a[4]), (b[1], b[2]), (b[3], b[4]))


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


class RegionIndex:
    """The live accesses of each resource, for deriving ordering edges.

    :meth:`add` logs one rectangle access of a resource (a device buffer
    handle, a host matrix id) by an *owner* (a task) and returns the
    owners of the earlier logged accesses it conflicts with: same
    resource, overlapping rectangles (:func:`rects_overlap`), at least
    one writer — the rule of :func:`accesses_conflict`, for device
    buffers and host matrices alike. Ordering each access after those
    owners orders every conflicting pair by a *path* of edges, not
    always a direct one, because the log is pruned by two rules:

    * **write shadowing** — once a write W has collected its owners,
      every logged entry W fully covers is dropped. Any later access
      that conflicts with a dropped entry overlaps W, which writes, so
      it conflicts with W (or with the write that in turn shadowed W)
      and W already follows the dropped entry: the happens-before
      closure is unchanged and only transitively implied edges vanish.
      What stays logged is, per element, the last writer and the
      readers since — the bookkeeping of tiled-DAG runtimes (Buttari et
      al.);
    * **retirement** — with a ``retired`` predicate, entries whose owner
      has already completed are dropped as they are met: an edge to a
      finished task orders nothing.

    Entries are keyed per resource by their column interval, so a query
    scans only the keys whose columns overlap its own. An empty
    rectangle occupies no elements: it conflicts with nothing and is not
    logged. Owners are returned in logging order (earliest first), once
    per conflicting entry.
    """

    def __init__(self, retired: Callable[[object], bool] | None = None):
        self._retired = retired
        # resource -> (col0, col1) -> [(seq, owner, row0, row1, write)]
        self._logs: dict[Hashable, dict[tuple[int, int], list[tuple]]] = {}
        self._seq = 0

    def add(
        self,
        owner: object,
        resource: Hashable,
        rows: tuple[int, int],
        cols: tuple[int, int],
        write: bool,
    ) -> list:
        """Log *owner*'s access to ``rows x cols`` of *resource* and
        return the owners of the logged accesses it conflicts with."""
        r0, r1 = rows
        c0, c1 = cols
        if r0 >= r1 or c0 >= c1:
            return []
        entry = (self._seq, owner, r0, r1, write)
        self._seq += 1
        keys = self._logs.get(resource)
        if keys is None:  # first access of the resource: nothing to order
            self._logs[resource] = {(c0, c1): [entry]}
            return []
        retired = self._retired
        hits: list[tuple[int, object]] = []
        emptied: list[tuple[int, int]] = []
        # Logged and queried intervals are non-empty, so the overlap tests
        # below are intervals_overlap without its emptiness tests.
        for key, log in keys.items():
            k0, k1 = key
            if k1 <= c0 or c1 <= k0:
                continue
            shadows = write and c0 <= k0 and k1 <= c1
            if not shadows and retired is None:
                # nothing in this log can be dropped: only collect hits
                for seq, other, e0, e1, other_write in log:
                    if (write or other_write) and e0 < r1 and r0 < e1:
                        hits.append((seq, other))
                continue
            kept = []
            for logged in log:
                seq, other, e0, e1, other_write = logged
                if retired is not None and retired(other):
                    continue
                if (write or other_write) and e0 < r1 and r0 < e1:
                    hits.append((seq, other))
                    if shadows and r0 <= e0 and e1 <= r1:
                        continue
                kept.append(logged)
            log[:] = kept
            if not kept:
                emptied.append(key)
        for key in emptied:
            del keys[key]
        log = keys.get((c0, c1))
        if log is None:
            keys[(c0, c1)] = [entry]
        else:
            log.append(entry)
        hits.sort()  # by logging order: sequence numbers are unique
        return [other for _, other in hits]

    def add_host(self, owner: object, region, write: bool) -> list:
        """:meth:`add` for a host region (anything with ``matrix`` /
        ``row0`` / ``row1`` / ``col0`` / ``col1``, e.g. a
        :class:`~repro.host.tiled.HostRegion`), keyed by its matrix."""
        return self.add(
            owner, id(region.matrix), (region.row0, region.row1),
            (region.col0, region.col1), write,
        )

    def clear(self) -> None:
        """Forget every logged access."""
        self._logs.clear()
