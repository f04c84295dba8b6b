"""Public entry point: out-of-core QR factorization.

:func:`ooc_qr` is what a downstream user calls::

    import numpy as np
    from repro.qr import ooc_qr

    a = np.random.default_rng(0).standard_normal((4096, 1024), ).astype(np.float32)
    result = ooc_qr(a, method="recursive", device_memory=64 << 20)
    q, r = result.q, result.r               # a was factorized out of core

At paper scale, pass a *shape* instead of data and get a simulated
performance run::

    result = ooc_qr((131072, 131072), method="recursive", mode="sim")
    print(result.makespan, result.achieved_tflops)
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from repro.ckpt import (
    CheckpointConfig,
    CheckpointManager,
    CheckpointSession,
    CheckpointStats,
    run_fingerprint,
)
from repro.config import PAPER_SYSTEM, SystemConfig
from repro.errors import ExecutionError, ValidationError
from repro.execution.base import RunStats
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor
from repro.health.report import HealthReport
from repro.health.sentinel import HealthSentinel
from repro.host.tiled import HostMatrix
from repro.obs.span import NULL_RECORDER, SpanRecorder
from repro.ooc.accounting import MovementReport, track
from repro.qr.blocking import QrRunInfo, ooc_blocking_qr
from repro.qr.options import QrOptions
from repro.qr.recursive import ooc_recursive_qr
from repro.sim.trace import Trace
from repro.util.validation import one_of

METHODS = ("recursive", "blocking")
MODES = ("numeric", "sim", "hybrid")
RUNTIMES = ("legacy", "dag")


@dataclass
class QrResult:
    """Everything one OOC QR run produced."""

    method: str
    mode: str
    q: np.ndarray | None
    r: np.ndarray | None
    info: QrRunInfo
    stats: RunStats
    movement: MovementReport
    trace: Trace | None
    config: SystemConfig
    options: QrOptions
    ckpt: CheckpointStats | None = None

    @property
    def makespan(self) -> float:
        """Simulated end-to-end seconds, or measured wall-clock seconds
        for numeric runs without a trace (:attr:`RunStats.wall_s`)."""
        if self.trace is not None:
            return self.trace.makespan
        return self.stats.wall_s

    @property
    def achieved_tflops(self) -> float:
        """End-to-end TFLOPS over :attr:`makespan` (simulated or wall)."""
        span = self.makespan
        return self.stats.total_flops / span / 1e12 if span > 0 else 0.0

    def phase_times(self) -> dict[str, float]:
        """Compute time per phase (panel / inner / outer), simulated runs."""
        return self.trace.compute_time_by_tag() if self.trace is not None else {}

    @property
    def health(self) -> HealthReport | None:
        """The run's numerical-health report (None when the sentinel is
        off); see :class:`~repro.health.report.HealthReport`."""
        return self.info.health


def _as_host_matrix(a, element_bytes: int) -> tuple[HostMatrix, bool]:
    """Normalize the ``a`` argument; returns (matrix, is_shape_only)."""
    if isinstance(a, HostMatrix):
        return a, not a.backed
    if isinstance(a, np.ndarray):
        # ndarray inputs are factorized by value: always copy so the
        # caller's array survives the in-place A <- Q overwrite
        return (
            HostMatrix.from_array(
                np.array(a, dtype=np.float32, order="C", copy=True), name="A"
            ),
            False,
        )
    if isinstance(a, tuple) and len(a) == 2:
        return HostMatrix.shape_only(a[0], a[1], element_bytes, name="A"), True
    raise ValidationError(
        "a must be a numpy array, a HostMatrix, or an (m, n) shape tuple; "
        f"got {type(a).__name__}"
    )


def _hybrid_qr(host_a, method, config, options, obs) -> QrResult:
    """``mode="hybrid"``: the numeric run, then a data-free sim run of the
    same shape and config for the timeline. Both issue the same op stream,
    so every ``RunStats`` counter must agree."""
    result = ooc_qr(
        host_a, method=method, mode="numeric", config=config,
        options=options, obs=obs,
    )
    twin = HostMatrix.shape_only(
        host_a.rows, host_a.cols, host_a.element_bytes, name=host_a.name
    )
    timed = ooc_qr(twin, method=method, mode="sim", config=config, options=options)
    diverged = [
        f.name
        for f in fields(RunStats)
        if f.name not in ("makespan", "wall_s")
        and getattr(result.stats, f.name) != getattr(timed.stats, f.name)
    ]
    if diverged:
        raise ExecutionError(
            f"hybrid numeric and sim runs diverged on: {', '.join(diverged)}"
        )
    result.stats.makespan = timed.stats.makespan
    return replace(result, mode="hybrid", trace=timed.trace)


def ooc_qr(
    a,
    *,
    method: str = "recursive",
    mode: str | None = None,
    config: SystemConfig | None = None,
    options: QrOptions | None = None,
    blocksize: int | None = None,
    device_memory: int | None = None,
    concurrency: str = "serial",
    checkpoint: CheckpointConfig | None = None,
    runtime: str = "legacy",
    obs: SpanRecorder | None = None,
) -> QrResult:
    """Out-of-core QR factorization ``A = QR`` (classic Gram-Schmidt).

    Parameters
    ----------
    a
        A tall fp32 matrix (factorized *by value*: the input is copied),
        a :class:`HostMatrix` (factorized in place), or an ``(m, n)``
        shape tuple for a data-free simulated run.
    method
        ``"recursive"`` (the paper's contribution) or ``"blocking"``
        (the conventional baseline).
    mode
        ``"numeric"`` (real computation), ``"sim"`` (event-simulated
        timing, no data), or ``"hybrid"`` (a numeric run, then a sim run
        of the same shape whose trace and makespan the result carries;
        :class:`~repro.errors.ExecutionError` if their counters differ).
        Defaults to ``"numeric"`` for backed inputs and ``"sim"`` for
        shapes.
    config
        System configuration; defaults to the paper's V100-32GB testbed.
    options
        :class:`QrOptions`; ``blocksize`` is a convenience override.
    device_memory
        Convenience cap on simulated device memory in bytes (the §5.2
        16 GB experiment, or small values to force OOC behaviour on small
        numeric problems).
    concurrency
        ``"serial"`` (default) or ``"threads"`` — numeric mode only. With
        ``"threads"`` the op stream runs on per-engine worker threads
        (H2D/compute/D2H overlap, see docs/concurrency.md), the result is
        bitwise identical to serial, and ``trace`` holds the recorded
        wall-clock schedule.
    checkpoint
        Optional :class:`~repro.ckpt.CheckpointConfig` making the run
        resumable (numeric mode only): progress is persisted at panel /
        recursion-node boundaries per the config's policy, and a rerun
        pointed at the same directory restores state, skips completed
        steps and produces a bitwise-identical result. See
        docs/checkpoint.md.
    runtime
        ``"legacy"`` (default) runs the engine imperatively on the
        selected executor. ``"dag"`` records the run as a tile-task
        graph (:mod:`repro.runtime`) and executes it with the dynamic
        dataflow scheduler — numeric mode (serial, or work-stealing
        workers with ``concurrency="threads"``) or sim mode; results are
        bitwise identical to legacy. Not yet combinable with
        ``mode="hybrid"``, ``checkpoint=`` or health monitoring. See
        docs/runtime.md.
    obs
        Optional :class:`~repro.obs.SpanRecorder`. When given, the run
        records a root span plus per-op spans (engine lanes, tile rects,
        dep edges on the DAG runtime) into it; export the result with
        :mod:`repro.obs.export` or ``repro trace``. With the default
        (no recorder) execution is bitwise identical to an
        un-instrumented run. See docs/observability.md.

    Returns
    -------
    QrResult
        Q/R arrays (numeric modes), the simulated trace (sim modes),
        movement accounting and run counters.
    """
    method = one_of(method, METHODS, "method")
    config = config or PAPER_SYSTEM
    if device_memory is not None:
        config = config.with_gpu(
            config.gpu.with_memory(device_memory, suffix="capped")
        )

    host_a, shape_only = _as_host_matrix(a, config.element_bytes)
    if mode is None:
        mode = "sim" if shape_only else "numeric"
    mode = one_of(mode, MODES, "mode")
    if shape_only and mode != "sim":
        raise ValidationError(
            f"mode={mode!r} needs real data; shape inputs only support 'sim'"
        )

    if options is None:
        options = QrOptions()
    if blocksize is not None:
        options = replace(options, blocksize=blocksize)

    n = host_a.cols
    # the host must hold A (overwritten by Q) and the n-by-n R
    config.check_host_capacity(
        host_a.rows * host_a.cols + n * n, what="OOC QR (A + R)"
    )

    concurrency = one_of(concurrency, ("serial", "threads"), "concurrency")
    if concurrency == "threads" and mode != "numeric":
        raise ValidationError("concurrency='threads' requires mode='numeric'")
    if checkpoint is not None and mode != "numeric":
        raise ValidationError("checkpoint= requires mode='numeric'")

    if options.health.enabled and mode != "numeric":
        raise ValidationError(
            "health monitoring requires mode='numeric' (probes need real "
            f"numbers), got mode={mode!r}"
        )

    runtime = one_of(runtime, RUNTIMES, "runtime")
    if runtime == "dag":
        if mode == "hybrid":
            raise ValidationError(
                "runtime='dag' supports mode='numeric' or 'sim'; "
                "hybrid runs stay on the legacy path"
            )
        if checkpoint is not None:
            raise ValidationError(
                "runtime='dag' does not support checkpoint= yet; "
                "use the legacy runtime"
            )
        if options.health.enabled:
            raise ValidationError(
                "runtime='dag' does not support health monitoring yet; "
                "use the legacy runtime"
            )

    if mode == "hybrid":
        return _hybrid_qr(host_a, method, config, options, obs)
    if shape_only:
        host_r = HostMatrix.shape_only(n, n, config.element_bytes, name="R")
    else:
        host_r = HostMatrix.zeros(n, n, dtype=np.float32, name="R")

    obs_rec = obs if obs is not None else NULL_RECORDER

    if runtime == "dag":
        from repro.runtime import GraphBuilder, run_recorded

        ex = GraphBuilder(
            config,
            label=f"qr-{method}[dag] {host_a.rows}x{host_a.cols}",
            materialize=(mode == "numeric"),
        )
    elif mode == "numeric":
        ex = (
            ConcurrentNumericExecutor(config)
            if concurrency == "threads"
            else NumericExecutor(config)
        )
        # Op spans come from the executor; the DAG path records them in
        # its backend instead (graph *building* is not execution).
        ex.obs = obs_rec
        if options.health.enabled:
            ex.health = HealthSentinel(
                options.health,
                base_format=config.precision.input_format,
                obs=obs_rec,
            )
    else:
        ex = SimExecutor(config)

    session = None
    if checkpoint is not None:
        fp = run_fingerprint(
            "qr", method, host_a.rows, host_a.cols, config, options
        )
        session = CheckpointSession(
            CheckpointManager(checkpoint, fingerprint=fp),
            ex,
            {"a": host_a, "r": host_r},
        )

    driver = ooc_recursive_qr if method == "recursive" else ooc_blocking_qr
    trace: Trace | None = None
    try:
        # The run's root span: op spans issued inside (including ones
        # recorded later on worker threads) parent under it.
        with obs_rec.span(
            f"ooc_qr[{method}]",
            cat="run",
            lane="driver",
            attrs={
                "method": method, "mode": mode, "runtime": runtime,
                "m": host_a.rows, "n": host_a.cols,
                "blocksize": options.blocksize, "concurrency": concurrency,
            },
        ):
            with track(ex) as moved:
                run_info = driver(ex, host_a, host_r, options, checkpoint=session)
            if runtime == "dag":
                trace = run_recorded(ex, mode, concurrency, obs=obs_rec)
            elif mode == "sim":
                trace = ex.finish()
            else:
                ex.synchronize()
                if isinstance(ex, ConcurrentNumericExecutor):
                    trace = ex.recorded_trace()
                ex.close()
    except BaseException:
        # A typed refusal (NumericalError etc.) must not leak worker
        # threads; close() is idempotent and a no-op on serial executors.
        if mode == "numeric":
            ex.close()
        raise
    ex.allocator.check_balanced()

    return QrResult(
        method=method,
        mode=mode,
        q=host_a.data if host_a.backed else None,
        r=host_r.data if host_r.backed else None,
        info=run_info,
        stats=ex.stats,
        movement=moved.report,
        trace=trace,
        config=config,
        options=options,
        ckpt=session.stats if session is not None else None,
    )
