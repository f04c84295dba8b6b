"""Engine registry: record every shipped OOC engine as a task graph.

Each ``drive_*`` function runs a real engine — the very code the numeric
and simulated executors run — over shape-only host matrices on any
:class:`~repro.execution.base.Executor`; each ``build_*_graph`` drives it
through a data-free :class:`~repro.runtime.builder.GraphBuilder` and
returns the recorded :class:`~repro.runtime.task.TaskGraph`. Because the
engines plan from ``ex.allocator.free_bytes``, a graph built under a
given config holds exactly the op stream a real run under that config
would issue, with its issued stream/event order on ``op.deps`` and its
dataflow on ``task.deps``.

:data:`GRAPH_BUILDERS` is the one engine registry: the CLI ``analyze``
sweeps and the CI ``static-analysis`` job iterate it (blocking/recursive
QR — including the TSQR panel-algorithm config — LU, Cholesky, and both
OOC GEMM engines). :func:`build_job_graph` maps a serve
:class:`~repro.serve.job.JobSpec` onto the matching graph so admission
verifies a plan before charging it.

Migration status lives in :data:`ENGINE_RUNTIME_STATUS`: engines marked
``"dag"`` also *execute* through ``runtime="dag"`` on the public APIs
(blocking QR, recursive QR, TSQR panels, both OOC GEMM engines); the
rest (LU/Cholesky) stay on the legacy execution path but are built and
verified here ahead of the follow-up migration. TSQR's migration is also
what anchors the ``repro.dist`` bitwise chain: sharded numeric QR ==
single-device TSQR == the dag-executed OOC path.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from repro.analysis.verify import AnalysisReport, verify_program
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.host.tiled import HostMatrix
from repro.qr.options import QrOptions
from repro.runtime.builder import GraphBuilder
from repro.runtime.task import TaskGraph


def _options(b: int, options: QrOptions | None) -> QrOptions:
    if options is None:
        return QrOptions(blocksize=b)
    return replace(options, blocksize=b)


def _host(ex, rows: int, cols: int, name: str) -> HostMatrix:
    return HostMatrix.shape_only(rows, cols, ex.config.element_bytes, name=name)


def _record(config: SystemConfig, label: str, drive: Callable) -> TaskGraph:
    """Drive one engine through a data-free builder; return its graph."""
    ex = GraphBuilder(config, label=label, materialize=False)
    drive(ex)
    ex.allocator.check_balanced()
    return ex.graph


def drive_qr(
    ex, m: int, n: int, b: int, *, method: str = "blocking",
    options: QrOptions | None = None,
) -> None:
    """Run one OOC QR (blocking or recursive) on *ex*."""
    from repro.qr.blocking import ooc_blocking_qr
    from repro.qr.recursive import ooc_recursive_qr

    driver = ooc_recursive_qr if method == "recursive" else ooc_blocking_qr
    driver(ex, _host(ex, m, n, "A"), _host(ex, n, n, "R"), _options(b, options))


def drive_factor(
    ex, kind: str, n: int, b: int, *, method: str = "blocking",
    options: QrOptions | None = None,
) -> None:
    """Run one OOC LU (``kind="lu"``: square, unpivoted) or Cholesky
    (``"cholesky"``: square SPD) on *ex*."""
    from repro.factor.cholesky import (
        ooc_blocking_cholesky,
        ooc_recursive_cholesky,
    )
    from repro.factor.lu import ooc_blocking_lu, ooc_recursive_lu

    recursive = method == "recursive"
    if kind == "lu":
        driver = ooc_recursive_lu if recursive else ooc_blocking_lu
    else:
        driver = ooc_recursive_cholesky if recursive else ooc_blocking_cholesky
    driver(ex, _host(ex, n, n, "A"), _options(b, options))


def drive_gemm(
    ex, m: int, n: int, k: int, b: int, *, kind: str = "inner",
    pipelined: bool = True,
) -> None:
    """Run one OOC GEMM on *ex*: ``kind="inner"`` is the k-split engine
    (``C = AᵀB``, Fig 3), ``"outer"`` the row-streaming update engine
    (``C -= A B``, Fig 5)."""
    from repro.ooc.inner import run_ksplit_inner
    from repro.ooc.outer import run_rowstream_outer
    from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer

    budget = ex.allocator.free_bytes // ex.config.element_bytes
    bm, c = _host(ex, k, n, "B").full(), _host(ex, m, n, "C").full()
    if kind == "inner":
        a = _host(ex, k, m, "A").full()
        plan = plan_ksplit_inner(k, m, n, min(b, k), budget)
        run_ksplit_inner(ex, a, bm, c, plan, pipelined=pipelined)
    else:
        a = _host(ex, m, k, "A").full()
        plan = plan_rowstream_outer(m, k, n, min(b, m), budget)
        run_rowstream_outer(ex, c, a, bm, plan, pipelined=pipelined)


def build_qr_graph(
    config: SystemConfig,
    m: int,
    n: int,
    b: int,
    *,
    method: str = "blocking",
    options: QrOptions | None = None,
    label: str | None = None,
) -> TaskGraph:
    """Record one OOC QR run (blocking or recursive) as a task graph."""
    graph = _record(
        config,
        label or f"qr-{method} {m}x{n} b={b}",
        lambda ex: drive_qr(ex, m, n, b, method=method, options=options),
    )
    graph.volume_hint = (method, m, n, min(b, n))
    return graph


def build_factor_graph(
    config: SystemConfig,
    kind: str,
    n: int,
    b: int,
    *,
    method: str = "blocking",
    options: QrOptions | None = None,
) -> TaskGraph:
    """Record one OOC LU (``kind="lu"``) or Cholesky (``"cholesky"``) run
    as a task graph."""
    graph = _record(
        config,
        f"{'lu' if kind == 'lu' else 'chol'}-{method} {n}x{n} b={b}",
        lambda ex: drive_factor(ex, kind, n, b, method=method, options=options),
    )
    # LU moves strictly less data per panel step than QR (no Q writeback)
    # and Cholesky touches only the lower triangle, so the §3.2 QR closed
    # forms bound both from above.
    graph.volume_hint = (method, n, n, min(b, n))
    return graph


def build_gemm_graph(
    config: SystemConfig,
    m: int,
    n: int,
    k: int,
    b: int,
    *,
    kind: str = "inner",
    pipelined: bool = True,
) -> TaskGraph:
    """Record one OOC GEMM run as a task graph (no §3.2 QR model applies,
    so the volume pass records a skip)."""
    return _record(
        config,
        f"gemm-{kind} {m}x{n}x{k} b={b}",
        lambda ex: drive_gemm(ex, m, n, k, b, kind=kind, pipelined=pipelined),
    )


#: Engine registry: name -> builder(config, m, n, b). GEMM entries fold
#: the reduction dimension into m; the TSQR entry runs the QR drivers
#: under the ``panel_algorithm="tsqr"`` config (same op stream on device,
#: but a distinct shipped configuration that admission must be able to
#: verify).
GRAPH_BUILDERS: dict[
    str, Callable[[SystemConfig, int, int, int], TaskGraph]
] = {
    "qr-blocking": lambda cfg, m, n, b: build_qr_graph(
        cfg, m, n, b, method="blocking"
    ),
    "qr-recursive": lambda cfg, m, n, b: build_qr_graph(
        cfg, m, n, b, method="recursive"
    ),
    "qr-tsqr": lambda cfg, m, n, b: build_qr_graph(
        replace(cfg, panel_algorithm="tsqr"), m, n, b, method="recursive",
        label=f"qr-tsqr {m}x{n} b={b}",
    ),
    "lu-blocking": lambda cfg, m, n, b: build_factor_graph(
        cfg, "lu", n, b, method="blocking"
    ),
    "lu-recursive": lambda cfg, m, n, b: build_factor_graph(
        cfg, "lu", n, b, method="recursive"
    ),
    "chol-blocking": lambda cfg, m, n, b: build_factor_graph(
        cfg, "cholesky", n, b, method="blocking"
    ),
    "chol-recursive": lambda cfg, m, n, b: build_factor_graph(
        cfg, "cholesky", n, b, method="recursive"
    ),
    "gemm-inner": lambda cfg, m, n, b: build_gemm_graph(
        cfg, n, n, m, b, kind="inner"
    ),
    "gemm-outer": lambda cfg, m, n, b: build_gemm_graph(
        cfg, m, n, n, b, kind="outer"
    ),
}

#: Per-engine migration status: "dag" = executable via ``runtime="dag"``
#: on the public APIs; "graph-adapter" = DAG built and verified here,
#: execution still on the legacy path (follow-up migration).
ENGINE_RUNTIME_STATUS: dict[str, str] = {
    "qr-blocking": "dag",
    "qr-recursive": "dag",
    "qr-tsqr": "dag",
    "lu-blocking": "graph-adapter",
    "lu-recursive": "graph-adapter",
    "chol-blocking": "graph-adapter",
    "chol-recursive": "graph-adapter",
    "gemm-inner": "dag",
    "gemm-outer": "dag",
}


def build_job_graph(spec, config: SystemConfig) -> TaskGraph:
    """Record the program a serve job would run under *config*.

    *config* must be the job's capped config (allocator capacity = the
    admission grant) so the engines shrink their tilings exactly as the
    real run will. A plan the engines cannot build raises where the real
    run would: ``PlanError`` when no tiling fits, and the builder's
    ``OutOfDeviceMemoryError`` / ``ExecutionError`` /
    ``AllocationError`` for a plan that overflows the grant, misuses a
    freed buffer or leaks one.
    """
    opts = spec.options
    shapes = spec.shapes()
    if spec.kind == "gemm":
        (r_a, c_a), (_r_b, c_b) = shapes
        if spec.trans_a:
            return build_gemm_graph(
                config, c_a, c_b, r_a, opts.blocksize,
                kind="inner", pipelined=opts.pipelined,
            )
        return build_gemm_graph(
            config, r_a, c_b, c_a, opts.blocksize,
            kind="outer", pipelined=opts.pipelined,
        )
    m, n = shapes[0]
    b = min(opts.blocksize, n)
    if spec.kind == "qr":
        return build_qr_graph(config, m, n, b, method=spec.method, options=opts)
    return build_factor_graph(
        config, spec.kind, n, b, method=spec.method, options=opts
    )


def verify_engine_graph(
    name: str,
    config: SystemConfig | None = None,
    *,
    m: int = 96,
    n: int = 64,
    b: int = 16,
    tolerance: float | None = None,
    precision=None,
) -> AnalysisReport:
    """Build one registry engine's task graph and verify it.

    QR graphs assert the ``m*n``-word input floor on top of the §3.2
    upper bounds (every input element must be loaded at least once).
    ``tolerance`` / ``precision`` flow through to the precision pass
    (see :func:`repro.analysis.verify.verify_program`).
    """
    config = config or PAPER_SYSTEM
    graph = GRAPH_BUILDERS[name](config, m, n, b)
    floor = m * n if name.startswith("qr-") else None
    return verify_program(
        graph,
        input_floor_words=floor,
        tolerance=tolerance,
        precision=precision,
    )


__all__ = [
    "ENGINE_RUNTIME_STATUS",
    "GRAPH_BUILDERS",
    "build_factor_graph",
    "build_gemm_graph",
    "build_job_graph",
    "build_qr_graph",
    "drive_factor",
    "drive_gemm",
    "drive_qr",
    "verify_engine_graph",
]
