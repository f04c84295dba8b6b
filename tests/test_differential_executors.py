"""Differential harness: every executor backend against every other.

The contract under test:

* the serial and concurrent numeric executors produce **bitwise identical**
  Q/R/C outputs for the same plan — thread scheduling must not change a
  single ULP;
* all stream executors (serial numeric, concurrent numeric, simulator,
  symbolic capture) emit the **same happens-before graph** for the same
  plan — op-for-op equal ``(engine, kind, name, deps)`` signatures, proving
  the concurrent scheduler honours exactly the semantics the simulator
  (and race detector) reason about;
* every backend, the task-graph builder included, receives the **same
  ops** — node-for-node equal ``(engine, kind, name, nbytes, flops,
  accesses)`` — and counts the same ``RunStats``, because the op vocabulary
  is defined once in :class:`~repro.execution.base.Executor`;
* DAG task cost hints equal the legacy simulator's durations op for op
  (one pricing function, :func:`repro.sim.simulator.price`).

The simulator runs on the same backed matrices (it never touches data), so
one set of inputs drives all backends.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest
import scipy.linalg

from repro.analysis.capture import CaptureExecutor
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ExecutionError
from repro.execution import (
    ConcurrentNumericExecutor,
    NumericExecutor,
    RunStats,
    SimExecutor,
)
from repro.factor.cholesky import ooc_blocking_cholesky, ooc_recursive_cholesky
from repro.factor.incore import diagonally_dominant, lu_unpack, spd_matrix
from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer
from repro.ooc.inner import run_ksplit_inner
from repro.ooc.outer import run_rowstream_outer
from repro.qr.blocking import ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.runtime import GraphBuilder
from repro.sim import happens_before_signature
from repro.sim.ops import EngineKind

from conftest import make_tiny_spec


def _config(mem_bytes: int = 1 << 20) -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(mem_bytes), precision=Precision.FP32)


def _qr_executors(config):
    return (
        NumericExecutor(config, record=True),
        ConcurrentNumericExecutor(config),
        SimExecutor(config),
    )


def _all_executors(config):
    """Every backend: the three stream executors, capture and the graph
    builder (the last two record instead of running)."""
    return (
        *_qr_executors(config),
        CaptureExecutor(config),
        GraphBuilder(config, materialize=False),
    )


def _ops_of(ex) -> list:
    if isinstance(ex, SimExecutor):
        return ex.sim.program.ops
    if isinstance(ex, GraphBuilder):
        return ex.graph.ops
    return ex.program.ops


def _signature_of(ex) -> list:
    return happens_before_signature(_ops_of(ex))


def _nodes(ops) -> list:
    """``(engine, kind, name, nbytes, flops, accesses)`` per op, with
    allocation handles renumbered in first-use order (handles come from a
    process-wide counter, so raw values differ between executors)."""
    handles: dict[int, int] = {}
    return [
        (
            op.engine.value, op.kind.value, op.name, op.nbytes, op.flops,
            tuple(
                (handles.setdefault(acc[0], len(handles)), *acc[1:])
                for acc in op.tags["accesses"]
            ),
        )
        for op in ops
    ]


def _counters(stats: RunStats) -> dict:
    return {
        f.name: getattr(stats, f.name)
        for f in fields(RunStats)
        if f.name not in ("makespan", "wall_s")
    }


def _assert_backends_agree(executors) -> None:
    """Node-for-node equal ops and equal counters across all backends;
    equal happens-before graphs across the stream executors."""
    reference = executors[0]
    for ex in executors[1:]:
        name = type(ex).__name__
        assert _nodes(_ops_of(ex)) == _nodes(_ops_of(reference)), name
        assert _counters(ex.stats) == _counters(reference.stats), name
        if not isinstance(ex, GraphBuilder):
            assert _signature_of(ex) == _signature_of(reference), name


QR_GRID = [
    # (rows, cols, options)
    (96, 64, QrOptions(blocksize=32)),
    (128, 64, QrOptions(blocksize=16)),
    (64, 64, QrOptions(blocksize=32, pipelined=False)),
    (96, 64, QrOptions(blocksize=32, staging_buffer=False)),
    (128, 32, QrOptions(blocksize=32, reuse_inner_result=False)),
    (96, 48, QrOptions(blocksize=16, qr_level_overlap=False)),
]


class TestQrDifferential:
    """Both QR drivers, across the shape/options grid."""

    @pytest.mark.parametrize("driver", [ooc_recursive_qr, ooc_blocking_qr])
    @pytest.mark.parametrize("rows,cols,options", QR_GRID)
    def test_three_executors_agree(self, driver, rows, cols, options, rng):
        config = _config()
        a0 = rng.standard_normal((rows, cols)).astype(np.float32)
        outputs, signatures = [], []
        for ex in _qr_executors(config):
            a = HostMatrix.from_array(a0.copy(), name="A")
            r = HostMatrix.zeros(cols, cols, name="R")
            try:
                driver(ex, a, r, options)
                ex.synchronize()
            finally:
                ex.close()
            signatures.append(_signature_of(ex))
            if not isinstance(ex, SimExecutor):
                outputs.append((a.data.copy(), r.data.copy()))

        serial, threaded = outputs
        assert np.array_equal(serial[0], threaded[0]), "Q differs"
        assert np.array_equal(serial[1], threaded[1]), "R differs"
        assert signatures[0] == signatures[1], "serial vs concurrent graph"
        assert signatures[0] == signatures[2], "numeric vs simulator graph"

    @pytest.mark.parametrize("driver", [ooc_recursive_qr, ooc_blocking_qr])
    @pytest.mark.parametrize("rows,cols,options", QR_GRID)
    def test_every_backend_gets_the_same_ops(self, driver, rows, cols, options, rng):
        config = _config()
        a0 = rng.standard_normal((rows, cols)).astype(np.float32)
        executors = _all_executors(config)
        for ex in executors:
            a = HostMatrix.from_array(a0.copy(), name="A")
            r = HostMatrix.zeros(cols, cols, name="R")
            try:
                driver(ex, a, r, options)
                ex.synchronize()
            finally:
                ex.close()
        _assert_backends_agree(executors)


FACTOR_GRID = [
    # (n, options)
    (64, QrOptions(blocksize=16)),
    (96, QrOptions(blocksize=32)),
    (64, QrOptions(blocksize=16, pipelined=False)),
]

FACTOR_DRIVERS = [
    ooc_blocking_lu,
    ooc_recursive_lu,
    ooc_blocking_cholesky,
    ooc_recursive_cholesky,
]


class TestFactorDifferential:
    """The §6 LU and Cholesky drivers on every backend."""

    @pytest.mark.parametrize("driver", FACTOR_DRIVERS)
    @pytest.mark.parametrize("n,options", FACTOR_GRID)
    def test_every_backend_gets_the_same_ops(self, driver, n, options):
        config = _config()
        lu = "lu" in driver.__name__
        a0 = diagonally_dominant(n, n, seed=80) if lu else spd_matrix(n, seed=81)
        executors = _all_executors(config)
        outputs = []
        for ex in executors:
            a = HostMatrix.from_array(a0.copy(), name="A")
            try:
                driver(ex, a, options)
                ex.synchronize()
            finally:
                ex.close()
            if isinstance(ex, NumericExecutor) and not isinstance(ex, GraphBuilder):
                outputs.append(a.data.copy())
        _assert_backends_agree(executors)
        serial, threaded = outputs
        assert np.array_equal(serial, threaded)


class TestNumericAndSimOps:
    """Single ops on the numeric executor (results) and the simulator
    (timeline) — the pairing ``ooc_qr(mode="hybrid")`` runs end to end.
    Both must count the same ``RunStats`` and emit the same ops."""

    @staticmethod
    def _run(config, program):
        """Run *program(ex)* on both executors; returns the sim trace."""
        numeric, sim = NumericExecutor(config, record=True), SimExecutor(config)
        for ex in (numeric, sim):
            program(ex)
        trace = sim.finish()
        numeric.synchronize()
        _assert_backends_agree((numeric, sim))
        return trace

    def test_gemm_result_and_trace(self, tiny_config, rng):
        a_np = rng.standard_normal((10, 6)).astype(np.float32)
        b_np = rng.standard_normal((6, 8)).astype(np.float32)
        out = HostMatrix.zeros(10, 8)

        def program(ex):
            s = ex.stream("s")
            a, b, c = ex.alloc(10, 6), ex.alloc(6, 8), ex.alloc(10, 8)
            ex.h2d(a, HostMatrix.from_array(a_np).full(), s)
            ex.h2d(b, HostMatrix.from_array(b_np).full(), s)
            ex.gemm(c, a, b, s)
            ex.d2h(out.full(), c, s)

        trace = self._run(tiny_config, program)
        np.testing.assert_allclose(out.data, a_np @ b_np, rtol=1e-5)
        assert trace.makespan > 0
        assert trace.h2d_bytes == (10 * 6 + 6 * 8) * 4

    def test_h2d_bytes_counted(self, tiny_config):
        def program(ex):
            ex.h2d(ex.alloc(4, 4), HostMatrix.zeros(4, 4).full(), ex.stream("s"))

        trace = self._run(tiny_config, program)
        assert trace.h2d_bytes == 64
        assert trace.makespan > 0

    def test_gemm_on_views(self, tiny_config, rng):
        a_np = rng.standard_normal((8, 8)).astype(np.float32)
        out = HostMatrix.zeros(4, 4)

        def program(ex):
            s = ex.stream("s")
            a = ex.alloc(8, 8)
            ex.h2d(a, HostMatrix.from_array(a_np).full(), s)
            c = ex.alloc(4, 4)
            ex.gemm(c, a.view(0, 4, 0, 4), a.view(0, 4, 4, 8), s)
            ex.d2h(out.full(), c, s)

        self._run(tiny_config, program)
        np.testing.assert_allclose(out.data, a_np[:4, :4] @ a_np[:4, 4:], rtol=1e-5)

    def test_foreign_buffer_rejected(self, numeric_ex, sim_ex):
        foreign = sim_ex.alloc(4, 4)
        host = HostMatrix.zeros(4, 4)
        with pytest.raises(ExecutionError, match="no numeric payload"):
            numeric_ex.h2d(foreign, host.full(), numeric_ex.stream("s"))

    def test_free_releases_allocator(self, numeric_ex, sim_ex):
        for ex in (numeric_ex, sim_ex):
            ex.free(ex.alloc(4, 4))
            ex.allocator.check_balanced()

    def test_events_order_sim_ops(self, tiny_config):
        def program(ex):
            s1, s2 = ex.stream("a"), ex.stream("b")
            buf = ex.alloc(16, 16)
            ex.h2d(buf, HostMatrix.zeros(16, 16).full(), s1)
            ex.wait_event(s2, ex.record_event(s1))
            c = ex.alloc(4, 4)
            ex.gemm(c, c.full(), c.full(), s2)

        trace = self._run(tiny_config, program)
        copy = trace.by_engine(EngineKind.H2D)[0]
        gemm = trace.by_engine(EngineKind.COMPUTE)[0]
        assert gemm.start >= copy.end

    def test_trsm(self, tiny_config, rng):
        k, n = 12, 8
        tri = np.tril(rng.uniform(1.0, 2.0, (k, k))).astype(np.float32)
        rhs = rng.standard_normal((k, n)).astype(np.float32)
        out = HostMatrix.zeros(k, n)

        def program(ex):
            s = ex.stream("s")
            tri_dev, b_dev = ex.alloc(k, k, "tri"), ex.alloc(k, n, "b")
            ex.h2d(tri_dev, HostMatrix.from_array(tri).full(), s)
            ex.h2d(b_dev, HostMatrix.from_array(rhs).full(), s)
            ex.trsm(tri_dev, b_dev, s, lower=True, unit_diag=False)
            ex.d2h(out.full(), b_dev, s)

        trace = self._run(tiny_config, program)
        ref = scipy.linalg.solve_triangular(tri, rhs, lower=True)
        np.testing.assert_allclose(out.data, ref, rtol=1e-4, atol=1e-4)
        assert trace.makespan > 0

    def test_panel_lu(self, tiny_config):
        a_np = diagonally_dominant(32, 8, seed=70)
        packed = HostMatrix.zeros(32, 8)

        def program(ex):
            s = ex.stream("s")
            panel, u = ex.alloc(32, 8, "panel"), ex.alloc(8, 8, "u")
            ex.h2d(panel, HostMatrix.from_array(a_np).full(), s)
            ex.panel_lu(panel, u, s)
            ex.d2h(packed.full(), panel, s)

        self._run(tiny_config, program)
        L, U = lu_unpack(packed.data)
        assert np.abs(L @ U - a_np).max() / np.abs(a_np).max() < 1e-4

    def test_panel_cholesky(self, tiny_config):
        s_np = spd_matrix(24, seed=71)
        out = HostMatrix.zeros(24, 8)

        def program(ex):
            s = ex.stream("s")
            panel = ex.alloc(24, 8, "panel")
            ex.h2d(panel, HostMatrix.from_array(s_np[:, :8]).full(), s)
            ex.panel_cholesky(panel, s)
            ex.d2h(out.full(), panel, s)

        self._run(tiny_config, program)
        # top 8x8 block is chol(S11); rows below are A21 L^{-T}
        l11 = np.linalg.cholesky(s_np[:8, :8].astype(np.float64))
        np.testing.assert_allclose(out.data[:8], l11, atol=1e-4)
        expect_below = scipy.linalg.solve_triangular(
            l11, s_np[8:, :8].astype(np.float64).T, lower=True
        ).T
        np.testing.assert_allclose(out.data[8:], expect_below, atol=1e-4)

    def test_counters_agree(self, tiny_config):
        a_np = diagonally_dominant(16, 4, seed=72)
        stats = []

        def program(ex):
            s = ex.stream("s")
            panel, u = ex.alloc(16, 4, "panel"), ex.alloc(4, 4, "u")
            ex.h2d(panel, HostMatrix.from_array(a_np).full(), s)
            ex.panel_lu(panel, u, s)
            stats.append(ex.stats)

        self._run(tiny_config, program)  # asserts the counters agree
        assert [st.n_panels for st in stats] == [1, 1]
        assert stats[0].panel_flops == 16 * 4 * 4

    def test_hybrid_mode_refuses_diverged_counters(self, tiny_config, rng, monkeypatch):
        from repro.qr.api import ooc_qr

        a = rng.standard_normal((64, 32)).astype(np.float32)
        res = ooc_qr(a, mode="hybrid", config=tiny_config, blocksize=16)
        assert res.mode == "hybrid" and res.trace.makespan > 0
        assert res.stats.makespan == res.trace.makespan
        assert res.movement.h2d_bytes == res.stats.h2d_bytes > 0

        issue = SimExecutor._issue

        def miscount(self, stream, **kwargs):
            self.stats.n_gemms += 1
            issue(self, stream, **kwargs)

        monkeypatch.setattr(SimExecutor, "_issue", miscount)
        with pytest.raises(ExecutionError, match="n_gemms"):
            ooc_qr(a, mode="hybrid", config=tiny_config, blocksize=16)


def _priced_pair(driver, shape, options, config):
    """Run *driver* on the legacy simulator and record it as a task graph;
    returns (legacy op durations, DAG op-task costs)."""
    sim = SimExecutor(config)
    builder = GraphBuilder(config, materialize=False)
    for ex in (sim, builder):
        mats = [HostMatrix.shape_only(*dims, name=name) for name, dims in shape]
        driver(ex, *mats, options)
        ex.synchronize()
    legacy = [op.duration for op in sim.sim.program.ops]
    dag = [task.cost for task in builder.graph.tasks if task.op is not None]
    return legacy, dag


class TestDagCostsMatchLegacySim:
    """One pricing function: every DAG cost hint equals the legacy sim
    duration of the same op, bit for bit — at paper scale (32768^2,
    b=8192) for every driver, where LU panels and TRSMs used to be priced
    by a coarser formula in the graph builder."""

    @pytest.mark.parametrize(
        "driver",
        [ooc_blocking_qr, ooc_recursive_qr, *FACTOR_DRIVERS],
        ids=lambda d: d.__name__,
    )
    def test_costs_equal_durations(self, driver):
        n = 32768
        if "qr" in driver.__name__:
            shape = (("A", (n, n)), ("R", (n, n)))
        else:
            shape = (("A", (n, n)),)
        legacy, dag = _priced_pair(
            driver, shape, QrOptions(blocksize=8192), PAPER_SYSTEM
        )
        assert len(legacy) == len(dag) > 0
        assert dag == legacy


class TestGemmDifferential:
    """Both OOC GEMM engines, serial vs. threads vs. sim."""

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_ksplit_inner(self, pipelined, rng):
        config = _config()
        a0 = rng.standard_normal((128, 64)).astype(np.float32)
        b0 = rng.standard_normal((128, 48)).astype(np.float32)
        budget = None
        outputs, signatures = [], []
        executors = _all_executors(config)
        for ex in executors:
            a = HostMatrix.from_array(a0.copy(), name="A")
            b = HostMatrix.from_array(b0.copy(), name="B")
            c = HostMatrix.zeros(64, 48, name="C")
            if budget is None:
                budget = ex.allocator.free_bytes // config.element_bytes
            plan = plan_ksplit_inner(128, 64, 48, 32, budget)
            try:
                run_ksplit_inner(
                    ex, a.full(), b.full(), c.full(), plan, pipelined=pipelined
                )
                ex.synchronize()
            finally:
                ex.close()
            if isinstance(ex, NumericExecutor) and not isinstance(ex, GraphBuilder):
                outputs.append(c.data.copy())

        assert np.array_equal(outputs[0], outputs[1])
        _assert_backends_agree(executors)

    @pytest.mark.parametrize("pipelined", [True, False])
    def test_rowstream_outer(self, pipelined, rng):
        config = _config()
        a0 = rng.standard_normal((96, 32)).astype(np.float32)
        b0 = rng.standard_normal((32, 48)).astype(np.float32)
        c0 = rng.standard_normal((96, 48)).astype(np.float32)
        budget = None
        outputs, signatures = [], []
        executors = _all_executors(config)
        for ex in executors:
            a = HostMatrix.from_array(a0.copy(), name="A")
            b = HostMatrix.from_array(b0.copy(), name="B")
            c = HostMatrix.from_array(c0.copy(), name="C")
            if budget is None:
                budget = ex.allocator.free_bytes // config.element_bytes
            plan = plan_rowstream_outer(96, 32, 48, 32, budget)
            try:
                run_rowstream_outer(
                    ex, c.full(), a.full(), b.full(), plan, pipelined=pipelined
                )
                ex.synchronize()
            finally:
                ex.close()
            if isinstance(ex, NumericExecutor) and not isinstance(ex, GraphBuilder):
                outputs.append(c.data.copy())

        assert np.array_equal(outputs[0], outputs[1])
        _assert_backends_agree(executors)

    def test_api_serial_vs_threads_bitwise(self, rng):
        config = _config()
        a = rng.standard_normal((256, 96)).astype(np.float32)
        b = rng.standard_normal((256, 64)).astype(np.float32)
        serial = ooc_gemm(a, b, trans_a=True, config=config, blocksize=32)
        threads = ooc_gemm(
            a, b, trans_a=True, config=config, blocksize=32,
            concurrency="threads",
        )
        assert np.array_equal(serial.c, threads.c)
        assert serial.trace is None and threads.trace is not None


class TestNumericTimingRegression:
    """Regression (ISSUE satellite 4): numeric-mode results used to report
    makespan/achieved_tflops as silently 0.0."""

    def test_gemm_wall_clock_figures(self, rng):
        from repro.qr.api import ooc_qr

        config = _config()
        a = rng.standard_normal((128, 64)).astype(np.float32)
        b = rng.standard_normal((128, 48)).astype(np.float32)
        for concurrency in ("serial", "threads"):
            res = ooc_gemm(
                a, b, trans_a=True, config=config, blocksize=32,
                concurrency=concurrency,
            )
            assert res.makespan > 0.0
            assert res.achieved_tflops > 0.0
            assert res.stats.wall_s > 0.0
        qr = ooc_qr(a, config=config, blocksize=32)
        assert qr.makespan > 0.0 and qr.achieved_tflops > 0.0
