"""Public out-of-core GEMM — the cuBLASXt-equivalent entry point.

The paper's §2.2 baseline libraries (cuBLASXt, BLASX) exist to provide
exactly this: ``C = alpha op(A) op(B) + beta C`` for host-resident
operands larger than device memory. :func:`ooc_gemm` exposes this
library's streaming engines behind one call, picking the strategy from
the operand shapes:

* ``trans_a=True`` (inner-product form, ``C = Aᵀ B``): the k-split engine
  (Fig 3) — C resident, reduction dimension streamed;
* otherwise (outer-product form): the row-streaming engine (Fig 5) — B
  resident, A and C row blocks streamed.

Like :func:`repro.qr.api.ooc_qr`, it runs numerically on real arrays or
as a data-free simulation on shape tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ShapeError, ValidationError
from repro.execution.base import RunStats
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor
from repro.host.tiled import HostMatrix
from repro.ooc.accounting import MovementReport, track
from repro.ooc.inner import run_ksplit_inner
from repro.ooc.outer import run_rowstream_outer
from repro.ooc.plan import plan_ksplit_inner, plan_rowstream_outer
from repro.sim.trace import Trace
from repro.util.validation import one_of, positive_int


@dataclass
class GemmResult:
    """Result of one out-of-core GEMM."""

    c: np.ndarray | None          # numeric mode: the output matrix
    strategy: str                 # "ksplit-inner" | "rowstream-outer"
    stats: RunStats
    movement: MovementReport
    trace: Trace | None
    config: SystemConfig

    @property
    def makespan(self) -> float:
        """Simulated makespan, or measured wall-clock seconds in numeric
        mode (from :attr:`RunStats.wall_s`) when no trace was recorded."""
        if self.trace is not None:
            return self.trace.makespan
        return self.stats.wall_s

    @property
    def achieved_tflops(self) -> float:
        span = self.makespan
        return self.stats.total_flops / span / 1e12 if span > 0 else 0.0


def _as_operand(x, element_bytes: int, name: str) -> tuple[HostMatrix, bool]:
    if isinstance(x, HostMatrix):
        return x, not x.backed
    if isinstance(x, np.ndarray):
        return (
            HostMatrix.from_array(
                np.ascontiguousarray(x, dtype=np.float32), name=name
            ),
            False,
        )
    if isinstance(x, tuple) and len(x) == 2:
        return HostMatrix.shape_only(x[0], x[1], element_bytes, name=name), True
    raise ValidationError(
        f"{name} must be an ndarray, HostMatrix or (rows, cols) tuple"
    )


def ooc_gemm(
    a,
    b,
    *,
    trans_a: bool = False,
    alpha: float = 1.0,
    beta: float = 0.0,
    c=None,
    config: SystemConfig | None = None,
    blocksize: int = 16384,
    mode: str | None = None,
    device_memory: int | None = None,
    pipelined: bool = True,
    concurrency: str = "serial",
    runtime: str = "legacy",
) -> GemmResult:
    """Out-of-core ``C = alpha op(A) B + beta C`` for host-resident operands.

    Supported forms (covering both GEMM types of the paper's pipelines):

    * ``trans_a=True, alpha=1, beta=0`` — inner product ``C = Aᵀ B``;
    * ``trans_a=False, alpha=-1, beta=1`` — trailing update ``C -= A B``
      (C required);
    * ``trans_a=False, alpha=1, beta=0`` — plain ``C = A B`` (computed as
      an update of a zero C).

    Operands are ndarrays / :class:`HostMatrix` (numeric) or shape tuples
    (simulated). Returns a :class:`GemmResult`.

    ``concurrency="threads"`` (numeric mode only) runs the op stream on the
    concurrent executor — per-engine worker threads overlapping H2D,
    compute and D2H, see docs/concurrency.md — and attaches the recorded
    wall-clock trace to the result. Results are bitwise identical to
    ``"serial"``.

    ``runtime="dag"`` records the run as a tile-task graph
    (:mod:`repro.runtime`) and executes it with the dynamic dataflow
    scheduler instead of issuing ops imperatively — both GEMM engines are
    fully migrated; results are bitwise identical to the legacy runtime.
    See docs/runtime.md.
    """
    config = config or PAPER_SYSTEM
    if device_memory is not None:
        config = config.with_gpu(
            config.gpu.with_memory(device_memory, suffix="capped")
        )
    blocksize = positive_int(blocksize, "blocksize")

    host_a, a_shape_only = _as_operand(a, config.element_bytes, "A")
    host_b, b_shape_only = _as_operand(b, config.element_bytes, "B")
    shape_only = a_shape_only or b_shape_only
    if a_shape_only != b_shape_only:
        raise ValidationError("A and B must both be data or both be shapes")
    if mode is None:
        mode = "sim" if shape_only else "numeric"
    mode = one_of(mode, ("numeric", "sim"), "mode")
    if shape_only and mode != "sim":
        raise ValidationError("shape operands only support mode='sim'")
    concurrency = one_of(concurrency, ("serial", "threads"), "concurrency")
    if concurrency == "threads" and mode != "numeric":
        raise ValidationError("concurrency='threads' requires mode='numeric'")
    runtime = one_of(runtime, ("legacy", "dag"), "runtime")

    if runtime == "dag":
        from repro.runtime import GraphBuilder, run_recorded

        ex = GraphBuilder(
            config,
            label=f"gemm[dag] {host_a.shape}x{host_b.shape}",
            materialize=(mode == "numeric"),
        )
    elif mode == "sim":
        ex = SimExecutor(config)
    elif concurrency == "threads":
        ex = ConcurrentNumericExecutor(config)
    else:
        ex = NumericExecutor(config)
    budget = ex.allocator.free_bytes // config.element_bytes

    if trans_a:
        # inner product C(M, N) = Aᵀ B with A (K, M), B (K, N)
        if alpha != 1.0 or beta != 0.0:
            raise ValidationError(
                "the inner-product form supports alpha=1, beta=0 only"
            )
        if host_a.rows != host_b.rows:
            raise ShapeError(
                f"inner product needs matching K: A {host_a.shape}, "
                f"B {host_b.shape}"
            )
        K, M, N = host_a.rows, host_a.cols, host_b.cols
        if shape_only:
            host_c = HostMatrix.shape_only(M, N, config.element_bytes, name="C")
        else:
            host_c = HostMatrix.zeros(M, N, name="C")
        plan = plan_ksplit_inner(K, M, N, blocksize, budget)
        with track(ex) as moved:
            run_ksplit_inner(
                ex, host_a.full(), host_b.full(), host_c.full(), plan,
                pipelined=pipelined,
            )
        strategy = "ksplit-inner"
    else:
        # outer-product form C(M, N) (+)= alpha A B with A (M, K), B (K, N)
        if (alpha, beta) not in ((-1.0, 1.0), (1.0, 0.0)):
            raise ValidationError(
                "the outer-product form supports (alpha, beta) in "
                "{(-1, 1), (1, 0)}"
            )
        if host_a.cols != host_b.rows:
            raise ShapeError(
                f"gemm inner dims differ: A {host_a.shape}, B {host_b.shape}"
            )
        M, K, N = host_a.rows, host_a.cols, host_b.cols
        if beta == 1.0:
            if c is None:
                raise ValidationError("beta=1 requires the C operand")
            host_c, c_shape_only = _as_operand(c, config.element_bytes, "C")
            if c_shape_only != shape_only:
                raise ValidationError("C must match A/B backing")
        elif shape_only:
            host_c = HostMatrix.shape_only(M, N, config.element_bytes, name="C")
        else:
            host_c = HostMatrix.zeros(M, N, name="C")
        if host_c.shape != (M, N):
            raise ShapeError(f"C is {host_c.shape}, expected {(M, N)}")
        if alpha == 1.0:
            # C = A B as a subtraction update of zero C with negated A:
            # handled by negating alpha through a plan-level identity —
            # numerically we just run the update with alpha=-1 on -A.
            # Cleaner: run the engine and flip the sign afterwards is not
            # possible for sims, so negate A numerically when backed.
            if host_a.backed:
                host_a = HostMatrix.from_array(-host_a.data, name="A")
        plan = plan_rowstream_outer(M, K, N, blocksize, budget)
        with track(ex) as moved:
            run_rowstream_outer(
                ex, host_c.full(), host_a.full(), host_b.full(), plan,
                pipelined=pipelined,
            )
        strategy = "rowstream-outer"

    if runtime == "dag":
        trace = run_recorded(ex, mode, concurrency)
    elif mode == "sim":
        trace = ex.finish()
    else:
        ex.synchronize()
        trace = (
            ex.recorded_trace()
            if isinstance(ex, ConcurrentNumericExecutor)
            else None
        )
        ex.close()
    ex.allocator.check_balanced()
    return GemmResult(
        c=host_c.data if host_c.backed else None,
        strategy=strategy,
        stats=ex.stats,
        movement=moved.report,
        trace=trace,
        config=config,
    )
