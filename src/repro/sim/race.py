"""Data-race detection for simulated stream programs.

CUDA gives no correctness guarantees between ops on different streams
unless an event orders them — a pipeline that "works" may only work
because today's engine timings happened to serialize it. This detector
checks the *dependency graph*, not the clock: two ops conflict if they
touch overlapping device-buffer regions, at least one writes, and neither
happens-before the other through stream-FIFO/event edges.

The OOC engines' buffer-recycling logic (double buffers, staging, resident
C reuse across panels) is exactly the kind of code this catches; the test
suite runs every engine under the detector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.sim.ops import SimOp
from repro.sim.trace import Trace
from repro.util.regions import accesses_conflict

#: Access record: (buffer_handle, row0, row1, col0, col1, is_write)
Access = tuple[int, int, int, int, int, bool]


@dataclass(frozen=True)
class Race:
    """One detected pair of unordered conflicting accesses."""

    op_a: SimOp
    op_b: SimOp
    buffer_handle: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"race on buffer {self.buffer_handle}: "
            f"{self.op_a.name!r} vs {self.op_b.name!r}"
        )


def find_hazards(
    ops: Sequence[SimOp], *orders: Sequence[Iterable[int]]
) -> list[Race]:
    """All unordered conflicting op pairs in an issue-ordered op list.

    The static core shared by the dynamic detector (:func:`detect_races`,
    which feeds it schedule-ordered trace ops) and the plan verifier
    (:mod:`repro.analysis.verify`, which feeds it a recorded program that
    was never executed). *ops* must be topologically ordered — every
    dependency precedes its dependent — which both issue order and
    schedule order guarantee.

    Ops carry their device accesses in ``tags["accesses"]``; ops without
    access records are ignored. Happens-before is the transitive closure
    of the ops' ``deps`` (stream FIFO + events), computed with bitsets
    over the given order. Each extra *order* is a further happens-before
    relation over the same ops — per op, the indices of the ops it
    depends on (a task graph's dataflow) — and a conflicting pair left
    unordered by any relation is a race.
    """
    index = {op: i for i, op in enumerate(ops)}
    issued = [[index[d] for d in op.deps if d in index] for op in ops]
    # before[i]: bitmask of the ops that happen-before op i in every relation
    before = _closure(issued)
    for order in orders:
        before = [a & b for a, b in zip(before, _closure(order))]

    races: list[Race] = []
    by_buffer: dict[int, list[tuple[int, Access]]] = {}
    for i, op in enumerate(ops):
        ordered = before[i]
        for acc in op.tags.get("accesses", ()):
            bucket = by_buffer.setdefault(acc[0], [])
            for j, other in bucket:
                if ordered >> j & 1 or not accesses_conflict(acc, other):
                    continue
                races.append(Race(ops[j], op, acc[0]))
                break  # one report per access is enough
            bucket.append((i, acc))
    return races


def _closure(order: Sequence[Iterable[int]]) -> list[int]:
    """Per op, the bitmask of ops that happen-before it (itself included);
    a dependency on a later op orders nothing."""
    reach = [0] * len(order)
    for i, preds in enumerate(order):
        mask = 1 << i
        for j in preds:
            mask |= reach[j]
        reach[i] = mask
    return reach


def detect_races(trace: Trace) -> list[Race]:
    """All unordered conflicting op pairs in *trace*.

    Sorts the trace into schedule order (a topological order of the
    dependency DAG, since an op cannot start before its dependencies end)
    and delegates to :func:`find_hazards`.
    """
    return find_hazards(sorted(trace.ops, key=lambda op: (op.start, op.op_id)))


def assert_race_free(trace: Trace) -> None:
    """Raise :class:`AssertionError` listing any detected races."""
    races = detect_races(trace)
    if races:
        listing = "\n  ".join(str(r) for r in races[:10])
        # AssertionError (not a ReproError) is this helper's documented
        # contract: it is a test-suite assertion, not a library failure.
        raise AssertionError(  # lint: allow[reproerror-raises]
            f"{len(races)} data race(s) in stream program:\n  {listing}"
        )
