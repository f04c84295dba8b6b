"""Numeric executor: really computes, with TensorCore numerics emulation.

By default work executes eagerly in issue order (a legal serialization of
any correct stream program), so numeric results are exact regardless of how
the calling pipeline arranged its streams. With ``record=True`` the
executor additionally records the stream program — the same
:class:`~repro.sim.scheduler.StreamProgram` happens-before graph the
simulator builds — stamping every executed op with wall-clock times, which is
what the differential test harness compares across backends and what the
race detector consumes.

:class:`~repro.execution.concurrent.ConcurrentNumericExecutor` subclasses
this executor and overrides :meth:`NumericExecutor._issue` to dispatch op
bodies onto per-engine worker threads instead of running them inline.

Device buffers are numpy fp32 arrays, still accounted against the simulated
device capacity through :class:`~repro.sim.memory.DeviceAllocator`, so
numeric runs exercise the same out-of-memory paths as simulated ones (with
a scaled-down :class:`~repro.hw.specs.GpuSpec` for tests).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.execution.base import Body, DeviceBuffer, DeviceView, Executor
from repro.health.sentinel import NULL_SENTINEL, HealthSentinel
from repro.host.tiled import HostRegion
from repro.obs.clock import monotonic as _monotonic
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import SimOp
from repro.sim.scheduler import StreamProgram
from repro.sim.trace import Trace
from repro.tc.gemm import tc_gemm


class _NullStream:
    """Streams are ordering hints only for the eager numeric executor."""

    def __init__(self, name: str):
        self.name = name


class _NullEvent:
    pass


class NumericExecutor(Executor):
    """Eager numpy-backed executor (see module docstring).

    Parameters
    ----------
    config
        The system configuration (device capacity, precision, models).
    record
        When true, streams/events are real (the shared
        :class:`~repro.sim.scheduler.StreamProgram` wiring) and every op is
        recorded with its dependency edges, device accesses and wall-clock
        start/end stamps — see :meth:`recorded_trace`.
    """

    def __init__(self, config: SystemConfig, *, record: bool = False):
        super().__init__(config)
        self.allocator = DeviceAllocator(config.usable_device_bytes)
        self._input_format = config.precision.input_format
        self.program: StreamProgram | None = StreamProgram() if record else None
        self._t0: float | None = None
        #: Recorder-timebase instant matching ``_t0`` — lets recorded ops
        #: (stamped relative to ``_t0``) land on the shared span timeline.
        self._obs_t0: float = 0.0
        #: Numerical-health sentinel; the api layer swaps in a live one
        #: when ``options.health`` enables probing. Op bodies consult it,
        #: so it must be attached before any op is issued.
        self.health: HealthSentinel = NULL_SENTINEL

    # -- issue machinery ---------------------------------------------------------

    def _now(self) -> float:
        """Seconds since the first issued op (wall clock)."""
        return _monotonic() - self._t0 if self._t0 is not None else 0.0

    def _issue(
        self,
        stream: Any,
        *,
        op: SimOp,
        body: Body,
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> None:
        """Run (or dispatch) one operation.

        The serial executor executes *body* immediately; when recording it
        also appends *op* to the program with its stream/event dependency
        edges and wall-clock stamps. Subclasses override this to schedule
        *body* elsewhere (the concurrent executor sends it to the op's
        engine worker).
        """
        if self._t0 is None:
            self._t0 = _monotonic()
            if self.obs.enabled:
                self._obs_t0 = self.obs.now()
        if self.program is None:
            if self.obs.enabled:
                start = self.obs.now()
                body()
                self._record_op_span(op, start, self.obs.now(), stream)
            else:
                body()
            return
        self.program.append(op, stream)
        op.start = self._now()
        body()
        op.end = self._now()
        op.duration = op.end - op.start
        if self.obs.enabled:
            self._record_op_span(
                op, op.start + self._obs_t0, op.end + self._obs_t0, stream
            )

    def _record_op_span(
        self,
        op: SimOp,
        start: float,
        end: float,
        stream: Any,
        parent_id: int | None = None,
    ) -> None:
        """Record one executed op as a span on its engine lane.

        The access records (already built for the race detector) become a
        compact ``rects`` attribute — ``("w", 0, 32, 0, 8)`` is a write
        to rows 0-32, cols 0-8 — so a Perfetto timeline shows exactly
        which tile rectangle each op touched (the Chrome exporter formats
        them as ``"w[0:32,0:8]"``; raw tuples keep string formatting off
        the hot path). Allocation handles are left out: they come from a
        process-wide counter, and span attributes must be identical from
        run to run (the golden determinism test).
        """
        attrs: dict[str, Any] = {}
        stream_name = getattr(stream, "name", "")
        if stream_name:
            attrs["stream"] = stream_name
        if op.nbytes:
            attrs["nbytes"] = op.nbytes
        if op.flops:
            attrs["flops"] = op.flops
        tag = op.tags.get("tag")
        if tag is not None:
            attrs["tag"] = tag
        accesses = op.tags["accesses"]
        if accesses:
            attrs["rects"] = [
                ("w" if write else "r", r0, r1, c0, c1)
                for _handle, r0, r1, c0, c1, write in accesses
            ]
        self.obs.record(
            op.name, start, end,
            cat=op.kind.value, lane=op.engine.value,
            parent_id=parent_id, attrs=attrs,
        )

    def recorded_trace(self) -> Trace:
        """The executed ops as a wall-clock :class:`~repro.sim.trace.Trace`.

        Requires ``record=True``. Ops carry their real start/end times and
        the stream/event dependency edges, so the simulator's causality
        checks and the :mod:`repro.sim.race` detector run on it unchanged.
        """
        if self.program is None:
            raise ExecutionError(
                "recorded_trace() requires a recording executor "
                "(NumericExecutor(config, record=True))"
            )
        trace = Trace()
        for op in self.program.ops:
            if op.scheduled:
                trace.add(op)
        return trace

    def close(self) -> None:
        """Release executor resources (worker threads in subclasses)."""

    # -- memory -----------------------------------------------------------------

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        buf = DeviceBuffer(name=name, rows=rows, cols=cols)
        nbytes = rows * cols * self.config.element_bytes
        allocation = self.allocator.alloc(nbytes, name=name)
        # Device data lives in fp32 regardless of element_bytes: storage
        # sizing models the paper's fp32 matrices, math runs in fp32 with
        # fp16 rounding applied inside GEMMs.
        buf.payload["data"] = np.zeros((rows, cols), dtype=np.float32)
        buf.payload["allocation"] = allocation
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.freed:
            raise ExecutionError(f"double free of device buffer {buf.name!r}")
        self.allocator.free(buf.payload["allocation"])
        buf.payload.pop("data", None)
        buf.freed = True

    # -- streams -----------------------------------------------------------------

    def stream(self, name: str) -> Any:
        if self.program is not None:
            return self.program.stream(name)
        return _NullStream(name)

    def record_event(self, stream: Any) -> Any:
        if self.program is not None:
            return self.program.record_event(stream)
        return _NullEvent()

    def wait_event(self, stream: Any, event: Any) -> None:
        if self.program is not None:
            self.program.wait_event(stream, event)

    def synchronize(self) -> None:
        # Eager execution has nothing to drain, but a sync is the natural
        # point to refresh the measured wall-clock span of the run.
        if self._t0 is not None:
            self.stats.wall_s = _monotonic() - self._t0

    # -- views -------------------------------------------------------------------

    @staticmethod
    def _data(view: DeviceView) -> np.ndarray:
        buf = view.buffer
        if buf.freed:
            raise ExecutionError(f"use of freed device buffer {buf.name!r}")
        data = buf.payload.get("data")
        if data is None:
            raise ExecutionError(
                f"device buffer {buf.name!r} has no numeric payload "
                "(allocated by a different executor?)"
            )
        return data[view.row0 : view.row1, view.col0 : view.col1]

    def _check_live(self, *views: DeviceView) -> None:
        """Fail fast (on the issuing thread) when an operand is dead."""
        for view in views:
            self._data(view)

    # -- numeric op bodies (the ops themselves are built by Executor) -----------

    def _body_h2d(self, op: SimOp, dst: DeviceView, src: HostRegion) -> Body:
        def body() -> None:
            data = self._data(dst)
            np.copyto(data, src.array)
            if self.health.enabled:
                self.health.check_h2d(data, op.name)

        return body

    def _body_d2h(self, op: SimOp, dst: HostRegion, src: DeviceView) -> Body:
        def body() -> None:
            data = self._data(src)
            # writeback scan: the last probed boundary before results reach
            # the host — device-side NaNs must never land silently
            if self.health.enabled:
                self.health.check_d2h(data, op.name)
            np.copyto(dst.array, data)

        return body

    def _body_d2d(self, op: SimOp, dst: DeviceView, src: DeviceView) -> Body:
        def body() -> None:
            np.copyto(self._data(dst), self._data(src))

        return body

    def _body_gemm(
        self,
        op: SimOp,
        c: DeviceView,
        a: DeviceView,
        b: DeviceView,
        alpha: float,
        beta: float,
        trans_a: bool,
        trans_b: bool,
    ) -> Body:
        def body() -> None:
            health = self.health
            c_data = self._data(c)
            # The sentinel may have escalated trailing updates to fp32;
            # in escalate mode keep the accumulator so a non-finite
            # output can be recomputed instead of refused.
            fmt = (
                health.gemm_format(self._input_format)
                if health.enabled
                else self._input_format
            )
            c_prev = (
                c_data.copy()
                if health.enabled and health.escalating and beta != 0.0
                else None
            )
            tc_gemm(
                self._data(a),
                self._data(b),
                alpha=alpha,
                beta=beta,
                c=c_data if beta != 0.0 else None,
                trans_a=trans_a,
                trans_b=trans_b,
                input_format=fmt,
                out=c_data,
                quant_stats=health.quant_stats,
            )
            if health.enabled:

                def retry_fp32() -> None:
                    tc_gemm(
                        self._data(a),
                        self._data(b),
                        alpha=alpha,
                        beta=beta,
                        c=c_prev,
                        trans_a=trans_a,
                        trans_b=trans_b,
                        input_format="fp32",
                        out=c_data,
                    )

                health.check_gemm(
                    c_data, op.name,
                    retry_fp32 if (beta == 0.0 or c_prev is not None) else None,
                )

        return body

    def _body_panel_qr(self, op: SimOp, panel: DeviceView, r_out: DeviceView) -> Body:
        def body() -> None:
            a_data = self._data(panel)
            # Keep the pre-factorization panel for the sentinel: breakdown
            # probes compare diag(R) against original column norms, and
            # the TSQR escalation rung refactorizes from it.
            orig = a_data.copy() if self.health.enabled else None
            q, r = self._factorize_panel(a_data)
            if self.health.enabled:
                q, r = self.health.after_panel(orig, q, r, self._factorize_panel)
            np.copyto(a_data, q)
            np.copyto(self._data(r_out), r)

        return body

    def _factorize_panel(self, a_data: np.ndarray):
        """Dispatch on ``config.panel_algorithm``; imports are lazy because
        repro.qr also hosts the OOC drivers that import this module."""
        algo = self.config.panel_algorithm
        if algo == "tsqr":
            from repro.qr.tsqr import tsqr

            q, r = tsqr(a_data, dtype=np.float32)
            return q.astype(np.float32), r.astype(np.float32)
        if algo == "householder":
            from repro.qr.householder import householder_qr

            q, r = householder_qr(a_data, dtype=np.float32)
            return q.astype(np.float32), r.astype(np.float32)
        from repro.qr.incore import incore_recursive_qr

        return incore_recursive_qr(a_data, input_format=self._input_format)

    # -- §6 extension ops (LU / Cholesky) -------------------------------------

    def _body_trsm(
        self,
        op: SimOp,
        a_tri: DeviceView,
        b: DeviceView,
        lower: bool,
        unit_diag: bool,
        trans_a: bool,
    ) -> Body:
        import scipy.linalg

        def body() -> None:
            b_data = self._data(b)
            solved = scipy.linalg.solve_triangular(
                self._data(a_tri),
                b_data,
                lower=lower,
                unit_diagonal=unit_diag,
                trans="T" if trans_a else "N",
                check_finite=False,
            )
            np.copyto(b_data, solved.astype(np.float32, copy=False))
            if self.health.enabled:
                self.health.check_output(b_data, op.name)

        return body

    def _body_panel_lu(self, op: SimOp, panel: DeviceView, u_out: DeviceView) -> Body:
        from repro.factor.incore import incore_lu_nopivot

        def body() -> None:
            a_data = self._data(panel)
            packed = incore_lu_nopivot(a_data, input_format=self._input_format)
            if self.health.enabled:
                self.health.check_output(packed, op.name)
            np.copyto(a_data, packed)
            np.copyto(self._data(u_out), np.triu(packed[: panel.cols]))

        return body

    def _body_panel_cholesky(self, op: SimOp, panel: DeviceView) -> Body:
        import scipy.linalg

        from repro.errors import ValidationError

        b = panel.cols

        def body() -> None:
            data = self._data(panel)
            try:
                chol = np.linalg.cholesky(data[:b].astype(np.float64))
            except np.linalg.LinAlgError as exc:
                raise ValidationError(
                    "panel_cholesky: diagonal block not positive definite"
                ) from exc
            data[:b] = np.triu(np.zeros((b, b), dtype=np.float32)) + np.tril(
                chol.astype(np.float32)
            )
            if panel.rows > b:
                data[b:] = scipy.linalg.solve_triangular(
                    chol, data[b:].astype(np.float64).T, lower=True,
                    check_finite=False,
                ).T.astype(np.float32)
            if self.health.enabled:
                self.health.check_output(data, op.name)

        return body
