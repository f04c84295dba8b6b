"""Differential equivalence: DAG runtime vs legacy executors.

For every engine migrated to the DAG runtime (blocking QR, recursive QR,
both OOC GEMM engines), the same problem is run on the legacy imperative
path and on ``runtime="dag"`` — serial and concurrent, power-of-two and
ragged shapes — and the results must be *bitwise* identical. On top of
the numeric identity, recorded programs must be comparable: a task
graph's issued order (``op.deps``) is op for op the happens-before graph
a ``SimExecutor`` run of the same engine records, and the graph's
dataflow (``task.deps``) never contradicts that order and covers every
conflicting pair it orders (:func:`~repro.runtime.edges_consistent`).

Finally, ``verify_program`` must accept the task graphs *directly* —
race-free, leak-free, exact peak within budget, §3.2 transfer volume.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.analysis import exact_peak_bytes, verify_program
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ValidationError
from repro.execution import SimExecutor
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.qr.api import ooc_qr
from repro.runtime import (
    ENGINE_RUNTIME_STATUS,
    GRAPH_BUILDERS,
    build_gemm_graph,
    build_qr_graph,
    drive_gemm,
    drive_factor,
    drive_qr,
    edges_consistent,
    verify_engine_graph,
)
from repro.sim import happens_before_signature
from repro.util.rng import default_rng, stable_seed
from tests.conftest import make_tiny_spec

#: (tag, m, n) QR shapes: power-of-two and ragged (non-multiple of b).
QR_SHAPES = [("pow2", 128, 64), ("ragged", 150, 70)]
#: (tag, m, n, k) GEMM shapes.
GEMM_SHAPES = [("pow2", 64, 64, 128), ("ragged", 90, 70, 130)]
BLOCK = 16
CONCURRENCY = ["serial", "threads"]


def _config() -> SystemConfig:
    return SystemConfig(gpu=make_tiny_spec(), precision=Precision.FP32)


def _matrix(*parts, shape) -> np.ndarray:
    rng = default_rng(stable_seed("runtime-differential", *parts))
    return rng.standard_normal(shape).astype(np.float32)


class TestQrBitwise:
    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_bitwise_identical(self, method, tag, m, n, concurrency):
        cfg = _config()
        a = _matrix("qr", method, tag, shape=(m, n))
        legacy = ooc_qr(a, method=method, config=cfg, blocksize=BLOCK)
        dag = ooc_qr(
            a, method=method, config=cfg, blocksize=BLOCK,
            runtime="dag", concurrency=concurrency,
        )
        assert np.array_equal(legacy.q, dag.q)
        assert np.array_equal(legacy.r, dag.r)
        # identical movement accounting, not merely identical numbers
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes
        assert legacy.stats.n_panels == dag.stats.n_panels
        assert legacy.stats.n_gemms == dag.stats.n_gemms

    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_threads_trace_recorded(self, method):
        cfg = _config()
        a = _matrix("qr-trace", method, shape=(128, 64))
        dag = ooc_qr(
            a, method=method, config=cfg, blocksize=BLOCK,
            runtime="dag", concurrency="threads",
        )
        assert dag.trace is not None
        assert dag.trace.makespan > 0.0
        dag.trace.check_causality()


class TestGemmBitwise:
    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n,k", GEMM_SHAPES)
    def test_inner_bitwise_identical(self, tag, m, n, k, concurrency):
        cfg = _config()
        a = _matrix("gemm-inner", tag, "a", shape=(k, m))
        b = _matrix("gemm-inner", tag, "b", shape=(k, n))
        legacy = ooc_gemm(a, b, trans_a=True, config=cfg, blocksize=32)
        dag = ooc_gemm(
            a, b, trans_a=True, config=cfg, blocksize=32,
            runtime="dag", concurrency=concurrency,
        )
        assert np.array_equal(legacy.c, dag.c)
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes

    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n,k", GEMM_SHAPES)
    def test_outer_bitwise_identical(self, tag, m, n, k, concurrency):
        cfg = _config()
        a = _matrix("gemm-outer", tag, "a", shape=(m, k))
        b = _matrix("gemm-outer", tag, "b", shape=(k, n))
        c = _matrix("gemm-outer", tag, "c", shape=(m, n))
        legacy = ooc_gemm(
            a, b, alpha=-1.0, beta=1.0, c=c, config=cfg, blocksize=32
        )
        dag = ooc_gemm(
            a, b, alpha=-1.0, beta=1.0, c=c, config=cfg, blocksize=32,
            runtime="dag", concurrency=concurrency,
        )
        assert np.array_equal(legacy.c, dag.c)
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes


def _sim_run(name: str, cfg: SystemConfig, m: int, n: int, b: int):
    """Registry engine *name* driven on a ``SimExecutor``, with the
    argument conventions of :data:`~repro.runtime.GRAPH_BUILDERS`."""
    family, variant = name.split("-")
    method = "blocking" if variant == "blocking" else "recursive"
    if variant == "tsqr":
        cfg = replace(cfg, panel_algorithm="tsqr")
    ex = SimExecutor(cfg)
    if family == "qr":
        drive_qr(ex, m, n, b, method=method)
    elif family == "lu":
        drive_factor(ex, "lu", n, b, method=method)
    elif family == "chol":
        drive_factor(ex, "cholesky", n, b, method=method)
    elif variant == "inner":
        drive_gemm(ex, n, n, m, b, kind="inner")
    else:
        drive_gemm(ex, m, n, n, b, kind="outer")
    return ex


def _assert_same_program(graph, sim_ex) -> None:
    """The graph's issued order is the simulator's program, and its
    dataflow agrees with it; allocations replay the same peak."""
    assert happens_before_signature(graph.ops) == happens_before_signature(
        sim_ex.sim.program.ops
    )
    assert edges_consistent(graph)
    assert exact_peak_bytes(graph) == sim_ex.allocator.peak
    allocs = [e for e in graph.mem_events if e.kind == "alloc"]
    assert len(allocs) == sim_ex.allocator.n_allocs


#: The CI ``static-analysis`` sweep shapes: (m, n, b, device GiB or None).
CI_SHAPES = [
    (96, 64, 16, None), (128, 64, 8, None), (96, 48, 16, None),
    (96, 64, 16, 0.001),
]


class TestIssuedOrderAnchor:
    """Every registry engine's graph records the program a ``SimExecutor``
    run issues: the verifier checks what the legacy executors and the
    simulator run."""

    @pytest.mark.parametrize("m,n,b,gib", CI_SHAPES)
    @pytest.mark.parametrize("name", sorted(GRAPH_BUILDERS))
    def test_graph_signature_equals_sim_run(self, name, m, n, b, gib):
        cfg = PAPER_SYSTEM
        if gib is not None:
            cfg = SystemConfig(
                gpu=cfg.gpu.with_memory(int(gib * (1 << 30)), suffix="capped")
            )
        graph = GRAPH_BUILDERS[name](cfg, m, n, b)
        _assert_same_program(graph, _sim_run(name, cfg, m, n, b))


class TestProgramEquivalence:
    """The graph is node-for-node the legacy program."""

    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    @pytest.mark.parametrize("method", ["blocking", "recursive"])
    def test_qr_node_for_node(self, method, tag, m, n):
        cfg = _config()
        graph = build_qr_graph(cfg, m, n, BLOCK, method=method)
        sim_ex = SimExecutor(cfg)
        drive_qr(sim_ex, m, n, BLOCK, method=method)
        _assert_same_program(graph, sim_ex)

    @pytest.mark.parametrize("kind", ["inner", "outer"])
    def test_gemm_node_for_node(self, kind):
        cfg = _config()
        graph = build_gemm_graph(cfg, 64, 64, 128, 32, kind=kind)
        sim_ex = SimExecutor(cfg)
        drive_gemm(sim_ex, 64, 64, 128, 32, kind=kind)
        _assert_same_program(graph, sim_ex)

    def test_sim_mode_matches_legacy_accounting(self):
        cfg = _config()
        legacy = ooc_qr((1024, 256), method="recursive", config=cfg,
                        blocksize=64)
        dag = ooc_qr((1024, 256), method="recursive", config=cfg,
                     blocksize=64, runtime="dag")
        assert dag.stats.h2d_bytes == legacy.stats.h2d_bytes
        assert dag.stats.d2h_bytes == legacy.stats.d2h_bytes
        assert dag.trace is not None and dag.trace.makespan > 0.0


class TestGraphVerification:
    """verify_program consumes the DAG directly (no capture pass)."""

    @pytest.mark.parametrize(
        "name",
        [n for n, status in ENGINE_RUNTIME_STATUS.items() if status == "dag"],
    )
    def test_migrated_engine_graphs_verify_clean(self, name):
        report = verify_engine_graph(name, _config())
        assert report.ok, [str(f) for f in report.findings]

    @pytest.mark.parametrize(
        "name",
        [n for n, s in ENGINE_RUNTIME_STATUS.items() if s == "graph-adapter"],
    )
    def test_adapter_engine_graphs_verify_clean(self, name):
        # LU/Cholesky stay on the legacy execution path, but their
        # registered graph adapters must already verify for the follow-up
        report = verify_engine_graph(name, _config())
        assert report.ok, [str(f) for f in report.findings]

    def test_registry_covers_status_map(self):
        assert set(GRAPH_BUILDERS) == set(ENGINE_RUNTIME_STATUS)

    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    def test_qr_graph_verifies_directly(self, tag, m, n):
        cfg = _config()
        graph = build_qr_graph(cfg, m, n, BLOCK, method="recursive")
        report = verify_program(graph, input_floor_words=m * n)
        assert report.ok, [str(f) for f in report.findings]
        assert report.peak_bytes > 0
        assert report.peak_bytes <= cfg.usable_device_bytes


class TestTsqrMigration:
    """TSQR panels execute through ``runtime="dag"`` (migrated with the
    ``repro.dist`` PR — the sharded numeric backend's bitwise chain ends
    at this path)."""

    def test_tsqr_status_is_dag(self):
        assert ENGINE_RUNTIME_STATUS["qr-tsqr"] == "dag"

    @pytest.mark.parametrize("concurrency", CONCURRENCY)
    @pytest.mark.parametrize("tag,m,n", QR_SHAPES)
    def test_tsqr_bitwise_identical(self, tag, m, n, concurrency):
        cfg = replace(_config(), panel_algorithm="tsqr")
        a = _matrix("qr-tsqr", tag, shape=(m, n))
        legacy = ooc_qr(a, method="recursive", config=cfg, blocksize=BLOCK)
        dag = ooc_qr(
            a, method="recursive", config=cfg, blocksize=BLOCK,
            runtime="dag", concurrency=concurrency,
        )
        assert np.array_equal(legacy.q, dag.q)
        assert np.array_equal(legacy.r, dag.r)
        assert legacy.stats.h2d_bytes == dag.stats.h2d_bytes
        assert legacy.stats.d2h_bytes == dag.stats.d2h_bytes


class TestRuntimeGates:
    def test_dag_rejects_hybrid(self):
        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), mode="hybrid",
                config=_config(), blocksize=16, runtime="dag",
            )

    def test_dag_rejects_checkpoint(self, tmp_path):
        from repro.ckpt import CheckpointConfig

        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), config=_config(),
                blocksize=16, runtime="dag",
                checkpoint=CheckpointConfig(str(tmp_path)),
            )

    def test_unknown_runtime_rejected(self):
        with pytest.raises(ValidationError):
            ooc_qr(
                _matrix("gate", shape=(64, 32)), config=_config(),
                blocksize=16, runtime="speculative",
            )
