"""Dependency derivation: the region index and the task graphs it wires.

:class:`~repro.util.regions.RegionIndex` keeps, per resource, only the
accesses a later access can still need an edge to: a write drops the
entries it fully covers. These tests pin down the index rules, then check
every registered engine graph against the all-pairs rule recomputed by
brute force (every earlier task with a conflicting access is a direct
dependency): the happens-before closures must be identical, so pruning
removes only transitively implied edges. A shape-only blocking QR on a
16x16 tile grid guards against the quadratic edge count coming back, and
its simulated makespan must be bit-for-bit the all-pairs graph's.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import verify_program
from repro.config import SystemConfig
from repro.hw.gemm import Precision
from repro.runtime import GRAPH_BUILDERS, SimGraphBackend, TaskGraph, build_qr_graph
from repro.sim.ops import OpKind
from repro.sim.race import find_hazards
from repro.util.regions import RegionIndex
from tests.conftest import make_tiny_spec

#: Device bytes of two 64x16 fp32 panels: the QR drivers spill R12 to host.
SPILL_MEM = 2 * 64 * 16 * 4
#: (tag, m, n, b, device bytes): a default case, a blocksize that does not
#: divide n, and a device so small that the QR drivers spill.
CASES = [
    ("default", 96, 64, 16, 1 << 20),
    ("ragged", 100, 70, 16, 1 << 20),
    ("spill", 64, 64, 16, SPILL_MEM),
]

#: Edges per task on the 16x16-tile blocking QR (5.2 today; the all-pairs
#: rule gave 152).
MAX_EDGES_PER_TASK = 8


def _config(mem_bytes: int) -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(mem_bytes), precision=Precision.FP32)


# -- the all-pairs rule, by brute force --------------------------------------------


def _regions(task):
    """``(resource, row0, row1, col0, col1, write)`` of every region the
    task touches; allocator tasks write their whole buffer."""
    if task.mem:
        buf = task.buffer
        handle = buf.payload["allocation"].handle
        yield ("dev", handle), 0, max(buf.rows, 1), 0, max(buf.cols, 1), True
        return
    for handle, r0, r1, c0, c1, write in task.accesses:
        yield ("dev", handle), r0, r1, c0, c1, write
    for regions, write in ((task.host_reads, False), (task.host_writes, True)):
        for reg in regions:
            yield ("host", id(reg.matrix)), reg.row0, reg.row1, reg.col0, reg.col1, write


def all_pairs_deps(graph: TaskGraph) -> list[set[int]]:
    """Each task's dependencies under the all-pairs rule: every earlier
    task with a region of the same resource that overlaps one of its own
    (non-empty in both axes) with at least one writer, plus the previous
    allocator task for allocator tasks."""
    history: dict[tuple, list] = {}  # resource -> [array (rows, 6), count]
    out: list[set[int]] = []
    last_mem = None
    for task in graph.tasks:
        deps: set[int] = set()
        regions = list(_regions(task))
        for key, r0, r1, c0, c1, write in regions:
            if key not in history or r0 >= r1 or c0 >= c1:
                continue
            arr, count = history[key]
            h = arr[:count]
            hit = (
                (h[:, 4].astype(bool) | write)
                & (h[:, 0] < h[:, 1]) & (h[:, 2] < h[:, 3])
                & (h[:, 0] < r1) & (r0 < h[:, 1])
                & (h[:, 2] < c1) & (c0 < h[:, 3])
            )
            deps.update(h[hit, 5].tolist())
        for key, *rect in regions:
            arr, count = history.setdefault(key, [np.zeros((16, 6), np.int64), 0])
            if count == len(arr):
                arr = np.concatenate([arr, np.zeros_like(arr)])
            arr[count] = (*rect, task.task_id)
            history[key] = [arr, count + 1]
        if task.mem:
            if last_mem is not None:
                deps.add(last_mem)
            last_mem = task.task_id
        deps.discard(task.task_id)
        out.append(deps)
    return out


def closure(deps: list[set[int]]) -> list[int]:
    """Bitmask per task of the tasks that happen before it (itself included)."""
    reach: list[int] = []
    for i, ds in enumerate(deps):
        mask = 1 << i
        for j in ds:
            mask |= reach[j]
        reach.append(mask)
    return reach


def graph_deps(graph: TaskGraph) -> list[set[int]]:
    return [{dep.task_id for dep in task.deps} for task in graph.tasks]


def all_pairs_twin(graph: TaskGraph) -> TaskGraph:
    """The same tasks wired by the all-pairs rule."""
    twin = TaskGraph(graph.config, label=f"{graph.label} (all pairs)")
    twin.tasks = [
        replace(task, deps=[graph.tasks[j] for j in sorted(deps)])
        for task, deps in zip(graph.tasks, all_pairs_deps(graph))
    ]
    return twin


# -- the index rules -------------------------------------------------------------


class TestRegionIndex:
    def test_read_after_write_and_write_after_read(self):
        idx = RegionIndex()
        assert idx.add("w1", 0, (0, 4), (0, 4), True) == []
        assert idx.add("r1", 0, (0, 2), (0, 4), False) == ["w1"]
        assert idx.add("r2", 0, (2, 4), (0, 4), False) == ["w1"]
        # a partial write conflicts with the writer and the reader it overlaps
        assert idx.add("w2", 0, (1, 2), (0, 4), True) == ["w1", "r1"]

    def test_covering_write_shadows_what_it_overwrites(self):
        idx = RegionIndex()
        idx.add("w1", 0, (0, 4), (0, 4), True)
        idx.add("r1", 0, (0, 4), (0, 2), False)
        assert idx.add("w2", 0, (0, 4), (0, 4), True) == ["w1", "r1"]
        # w1 and r1 are gone: a later reader needs only the covering write
        assert idx.add("r2", 0, (1, 2), (1, 2), False) == ["w2"]

    def test_partial_write_shadows_nothing(self):
        idx = RegionIndex()
        idx.add("w1", 0, (0, 4), (0, 4), True)
        idx.add("w2", 0, (0, 2), (0, 4), True)
        assert idx.add("r", 0, (3, 4), (0, 4), False) == ["w1"]

    def test_reads_shadow_nothing(self):
        idx = RegionIndex()
        idx.add("r1", 0, (0, 4), (0, 4), False)
        idx.add("r2", 0, (0, 4), (0, 4), False)
        assert idx.add("w", 0, (0, 1), (0, 1), True) == ["r1", "r2"]

    def test_resources_and_columns_are_separate(self):
        idx = RegionIndex()
        idx.add("w1", 0, (0, 4), (0, 2), True)
        idx.add("w2", 0, (0, 4), (2, 4), True)
        assert idx.add("r", 1, (0, 4), (0, 4), False) == []
        assert idx.add("r0", 0, (0, 4), (2, 3), False) == ["w2"]
        assert idx.add("r01", 0, (0, 4), (1, 3), False) == ["w1", "w2"]

    def test_adjacent_and_empty_regions_conflict_with_nothing(self):
        idx = RegionIndex()
        idx.add("w", 0, (0, 4), (0, 4), True)
        assert idx.add("below", 0, (4, 8), (0, 4), True) == []
        assert idx.add("empty", 0, (2, 2), (0, 4), True) == []
        # the empty write was not logged, so it shadows and orders nothing
        assert idx.add("r", 0, (0, 8), (0, 4), False) == ["w", "below"]

    def test_retired_owners_drop_out(self):
        done: set[str] = set()
        idx = RegionIndex(retired=done.__contains__)
        idx.add("w1", 0, (0, 4), (0, 4), True)
        idx.add("w2", 0, (4, 8), (0, 4), True)
        done.add("w1")
        assert idx.add("r", 0, (0, 8), (0, 4), False) == ["w2"]

    def test_owners_come_back_in_logging_order(self):
        idx = RegionIndex()
        idx.add("a", 0, (0, 1), (2, 3), True)
        idx.add("b", 0, (0, 1), (0, 1), True)
        idx.add("c", 0, (0, 1), (2, 3), False)
        assert idx.add("w", 0, (0, 1), (0, 4), True) == ["a", "b", "c"]

    def test_clear_forgets_everything(self):
        idx = RegionIndex()
        idx.add("w", 0, (0, 4), (0, 4), True)
        idx.clear()
        assert idx.add("r", 0, (0, 4), (0, 4), False) == []


# -- every engine graph against the all-pairs rule --------------------------------


class TestClosureEquivalence:
    @pytest.mark.parametrize("tag,m,n,b,mem", CASES, ids=[c[0] for c in CASES])
    @pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS))
    def test_closure_matches_all_pairs(self, name, tag, m, n, b, mem):
        graph = GRAPH_BUILDERS[name](_config(mem), m, n, b)
        new, old = graph_deps(graph), all_pairs_deps(graph)
        # pruning only drops edges, and only transitively implied ones
        assert all(d <= o for d, o in zip(new, old))
        assert closure(new) == closure(old)
        assert find_hazards(graph.ops) == []
        report = verify_program(graph)
        assert report.ok, [str(f) for f in report.findings]

    def test_spill_case_spills(self):
        # the tight case really streams R12 back from host R
        graph = build_qr_graph(_config(SPILL_MEM), 64, 64, 16, method="recursive")
        assert any(
            t.kind is OpKind.COPY_H2D and t.host_reads[0].matrix.name == "R"
            for t in graph.tasks
        )


# -- edge growth ---------------------------------------------------------------------


class TestEdgeGrowth:
    def test_tile_grid_16x16_edges_stay_linear(self):
        cfg = _config(1 << 20)
        graph = build_qr_graph(cfg, 256, 256, 16, method="blocking")
        n_edges = sum(len(t.deps) for t in graph.tasks)
        assert n_edges <= MAX_EDGES_PER_TASK * graph.n_tasks
        # same simulated makespan as the all-pairs wiring, bit for bit: the
        # simulator starts a task at the latest end among its direct deps,
        # which equals the latest end over its happens-before closure
        pruned = SimGraphBackend(cfg).run(graph).makespan
        twin = all_pairs_twin(graph)
        assert sum(len(t.deps) for t in twin.tasks) > 20 * n_edges
        assert SimGraphBackend(cfg).run(twin).makespan == pruned
