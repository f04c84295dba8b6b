"""Executor interface: the device-programming surface of the library.

OOC algorithms (GEMM engines, QR/LU/Cholesky drivers) are written once
against this interface — alloc/free device buffers, async copies, GEMMs,
panel factorizations, streams and events — and run on any backend:

* :class:`~repro.execution.numeric.NumericExecutor` really computes with
  numpy (+ TensorCore numerics emulation), eagerly in issue order;
* :class:`~repro.execution.concurrent.ConcurrentNumericExecutor` runs the
  same op bodies on per-engine worker threads;
* :class:`~repro.execution.sim.SimExecutor` prices every op with
  :func:`repro.sim.simulator.price` and feeds it to the discrete-event
  simulator — timing at paper scale (131072^2 and beyond) without data;
* :class:`~repro.analysis.capture.CaptureExecutor` records a symbolic
  program for the static verifier (no data, no clock);
* :class:`~repro.runtime.builder.GraphBuilder` records a tile-task graph
  for the DAG runtime.

The interface is deliberately CUDA-shaped (streams order work, events
synchronize across streams) so the pipeline code reads like the CUDA
implementation the paper describes.

One op vocabulary
-----------------
The eight device ops (``h2d``, ``d2h``, ``d2d``, ``gemm``, ``panel_qr``,
``trsm``, ``panel_lu``, ``panel_cholesky``) are defined once, here. Each
normalizes its operands to views, checks shapes and liveness, builds the
op record — canonical name, engine, kind, bytes, flops, dims, device
accesses, host reads/writes — counts it in :attr:`Executor.stats`, and
hands the finished :class:`~repro.sim.ops.SimOp` plus its numeric body to
the single backend hook :meth:`Executor._issue`. Backends differ only in
``_issue`` and in their memory and stream hooks.

Adding an op takes one method on :class:`Executor` (built like the ones
below) and one ``_body_<op>`` on
:class:`~repro.execution.numeric.NumericExecutor`; if its cost is not a
GEMM, TRSM or panel, one branch in :func:`repro.sim.simulator.price`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import SystemConfig
from repro.errors import ExecutionError, ShapeError
from repro.host.tiled import HostRegion
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.scheduler import copy_name, device_access, gemm_name, panel_name
from repro.util.units import gemm_flops
from repro.util.validation import check_shape_2d

#: A numeric op body: runs the op on real data (None on data-free backends).
Body = Callable[[], None] | None


@dataclass(eq=False)
class DeviceBuffer:
    """An executor-owned device allocation holding a rows-by-cols matrix."""

    name: str
    rows: int
    cols: int
    #: Executor-specific payloads (numpy array for numeric, Allocation for
    #: both, nothing extra for sim).
    payload: dict[str, Any] = field(default_factory=dict)
    freed: bool = False

    def __post_init__(self) -> None:
        self.rows, self.cols = check_shape_2d((self.rows, self.cols), self.name)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def view(
        self,
        row0: int = 0,
        row1: int | None = None,
        col0: int = 0,
        col1: int | None = None,
    ) -> "DeviceView":
        """A rectangular window of this buffer."""
        row1 = self.rows if row1 is None else row1
        col1 = self.cols if col1 is None else col1
        return DeviceView(self, row0, row1, col0, col1)

    def full(self) -> "DeviceView":
        """The whole buffer as a view."""
        return self.view()


@dataclass(frozen=True)
class DeviceView:
    """A window into a :class:`DeviceBuffer` (GEMM/copy operand)."""

    buffer: DeviceBuffer
    row0: int
    row1: int
    col0: int
    col1: int

    def __post_init__(self) -> None:
        if not (0 <= self.row0 < self.row1 <= self.buffer.rows):
            raise ShapeError(
                f"row range [{self.row0}, {self.row1}) outside device buffer "
                f"{self.buffer.name!r} with {self.buffer.rows} rows"
            )
        if not (0 <= self.col0 < self.col1 <= self.buffer.cols):
            raise ShapeError(
                f"col range [{self.col0}, {self.col1}) outside device buffer "
                f"{self.buffer.name!r} with {self.buffer.cols} cols"
            )

    @property
    def rows(self) -> int:
        return self.row1 - self.row0

    @property
    def cols(self) -> int:
        return self.col1 - self.col0

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def label(self) -> str:
        """Compact address used in op names."""
        return (
            f"{self.buffer.name}[{self.row0}:{self.row1},{self.col0}:{self.col1}]"
        )


def as_view(operand: "DeviceBuffer | DeviceView") -> DeviceView:
    """Normalize a buffer-or-view operand to a view."""
    if isinstance(operand, DeviceBuffer):
        return operand.full()
    return operand


@dataclass
class RunStats:
    """Aggregate result of an executor run."""

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    d2d_bytes: int = 0
    gemm_flops: int = 0
    panel_flops: int = 0
    n_gemms: int = 0
    n_panels: int = 0
    #: Simulated makespan in seconds (0 for pure numeric runs).
    makespan: float = 0.0
    #: Measured wall-clock seconds from first issued op to the last
    #: synchronize (0 until an executor that measures time synchronizes).
    wall_s: float = 0.0

    @property
    def total_flops(self) -> int:
        return self.gemm_flops + self.panel_flops

    @property
    def moved_bytes(self) -> int:
        """Total PCIe traffic (both directions)."""
        return self.h2d_bytes + self.d2h_bytes


class Executor(abc.ABC):
    """Abstract device-programming interface (see module docstring)."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.stats = RunStats()
        # Every executor carries a health sentinel so drivers can notify
        # panel boundaries unconditionally; only numeric executors swap in
        # a live one (probes are meaningless without real numbers).
        from repro.health.sentinel import NULL_SENTINEL
        from repro.obs.span import NULL_RECORDER

        self.health = NULL_SENTINEL
        # Span recorder (repro.obs). Same idiom as the sentinel: disabled
        # by default, and every instrumentation site guards on
        # ``self.obs.enabled`` so obs=off leaves execution untouched.
        self.obs = NULL_RECORDER

    # -- memory -----------------------------------------------------------------

    @abc.abstractmethod
    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        """Allocate a rows-by-cols device buffer."""

    @abc.abstractmethod
    def free(self, buf: DeviceBuffer) -> None:
        """Release a device buffer."""

    # -- streams / events ----------------------------------------------------------

    @abc.abstractmethod
    def stream(self, name: str) -> Any:
        """Create an asynchronous work queue."""

    @abc.abstractmethod
    def record_event(self, stream: Any) -> Any:
        """Record an event capturing the stream's work so far."""

    @abc.abstractmethod
    def wait_event(self, stream: Any, event: Any) -> None:
        """Make future work on *stream* wait for *event*."""

    @abc.abstractmethod
    def synchronize(self) -> None:
        """Block until all submitted work completes."""

    def close(self) -> None:  # noqa: B027 - intentional no-op default
        """Release executor resources (worker threads, etc). Idempotent.

        The base implementation is a no-op; executors that own background
        resources override it. Callers that may run a concurrent executor
        should ``try/finally: ex.close()``.
        """

    # -- the op hook --------------------------------------------------------------

    @abc.abstractmethod
    def _issue(
        self,
        stream: Any,
        *,
        op: SimOp,
        body: Body,
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> None:
        """Execute, price or record one finished op (the backend hook).

        *op* carries the name, engine, kind, bytes, flops, dims and
        ``tags`` (``"tag"`` for compute ops, ``"accesses"`` always);
        *body* is the numeric closure (None unless the backend computes);
        *host_reads* / *host_writes* are the host regions a copy touches.
        """

    def _check_live(self, *views: DeviceView) -> None:  # noqa: B027
        """Reject operands whose buffer is dead. Data-free backends accept
        anything (the static verifier reports use-after-free instead)."""

    # -- numeric bodies: NumericExecutor overrides every one --------------------

    def _no_body(self, *_operands: Any) -> Body:
        return None

    _body_h2d = _body_d2h = _body_d2d = _body_gemm = _no_body
    _body_panel_qr = _body_trsm = _body_panel_lu = _body_panel_cholesky = _no_body

    # -- data movement ----------------------------------------------------------------

    def h2d(self, dst: DeviceBuffer | DeviceView, src: HostRegion, stream: Any) -> None:
        """Copy a host region into a device view (shapes must match)."""
        dst = as_view(dst)
        self._check_copy_shapes(dst.shape, src.shape)
        self._check_live(dst)
        self.stats.h2d_bytes += src.nbytes
        op = _make_op(
            copy_name("h2d", src, dst), EngineKind.H2D, OpKind.COPY_H2D,
            [device_access(dst, True)], nbytes=src.nbytes,
        )
        self._issue(
            stream, op=op, body=self._body_h2d(op, dst, src), host_reads=(src,)
        )

    def d2h(self, dst: HostRegion, src: DeviceBuffer | DeviceView, stream: Any) -> None:
        """Copy a device view back into a host region."""
        src = as_view(src)
        self._check_copy_shapes(dst.shape, src.shape)
        self._check_live(src)
        self.stats.d2h_bytes += dst.nbytes
        op = _make_op(
            copy_name("d2h", src, dst), EngineKind.D2H, OpKind.COPY_D2H,
            [device_access(src, False)], nbytes=dst.nbytes,
        )
        self._issue(
            stream, op=op, body=self._body_d2h(op, dst, src), host_writes=(dst,)
        )

    def d2d(
        self, dst: DeviceBuffer | DeviceView, src: DeviceBuffer | DeviceView, stream: Any
    ) -> None:
        """On-device copy (the §4.1.2 staging-buffer fast path)."""
        dst, src = as_view(dst), as_view(src)
        self._check_copy_shapes(dst.shape, src.shape)
        self._check_live(dst, src)
        nbytes = dst.rows * dst.cols * self.config.element_bytes
        self.stats.d2d_bytes += nbytes
        op = _make_op(
            copy_name("d2d", src, dst), EngineKind.COMPUTE, OpKind.COPY_D2D,
            [device_access(src, False), device_access(dst, True)], nbytes=nbytes,
        )
        self._issue(stream, op=op, body=self._body_d2d(op, dst, src))

    # -- compute -------------------------------------------------------------------------

    def gemm(
        self,
        c: DeviceBuffer | DeviceView,
        a: DeviceBuffer | DeviceView,
        b: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        alpha: float = 1.0,
        beta: float = 0.0,
        trans_a: bool = False,
        trans_b: bool = False,
        tag: str = "gemm",
    ) -> None:
        """``C = alpha * op(A) op(B) + beta * C`` on device views."""
        c, a, b = as_view(c), as_view(a), as_view(b)
        m, n, k = self._gemm_dims(c, a, b, trans_a, trans_b)
        self._check_live(c, a, b)
        flops = gemm_flops(m, n, k)
        stats = self.stats
        stats.gemm_flops += flops
        stats.n_gemms += 1
        op = _make_op(
            gemm_name(tag, m, n, k), EngineKind.COMPUTE, OpKind.GEMM,
            [device_access(a, False), device_access(b, False), device_access(c, True)],
            flops=flops, dims=(m, n, k), tag=tag,
        )
        body = self._body_gemm(op, c, a, b, alpha, beta, trans_a, trans_b)
        self._issue(stream, op=op, body=body)

    def panel_qr(
        self,
        panel: DeviceBuffer | DeviceView,
        r_out: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        tag: str = "panel",
    ) -> None:
        """In-core QR of a device-resident tall panel.

        On return the panel view holds Q (orthonormal columns) and *r_out*
        (b-by-b) holds R. This is the LATER-style in-core recursive CGS
        factorization both OOC variants share.
        """
        panel, r_out = as_view(panel), as_view(r_out)
        if r_out.shape != (panel.cols, panel.cols):
            raise ExecutionError(
                f"panel_qr: R is {r_out.shape}, expected "
                f"{(panel.cols, panel.cols)}"
            )
        self._check_live(panel, r_out)
        flops = self.config.panel.flops(panel.rows, panel.cols)
        self._count_panel(flops)
        op = _make_op(
            panel_name(tag, panel.rows, panel.cols), EngineKind.COMPUTE, OpKind.PANEL,
            [device_access(panel, True), device_access(r_out, True)],
            flops=flops, dims=panel.shape, tag=tag,
        )
        self._issue(stream, op=op, body=self._body_panel_qr(op, panel, r_out))

    # -- extension ops for the §6 future-work factorizations (LU, Cholesky) --

    def trsm(
        self,
        a_tri: DeviceBuffer | DeviceView,
        b: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        lower: bool = True,
        unit_diag: bool = False,
        trans_a: bool = False,
        tag: str = "trsm",
    ) -> None:
        """In-core left triangular solve: ``B <- op(A)^{-1} B`` in place.

        *a_tri* is a k-by-k device triangle (lower when ``lower``), *b* a
        k-by-n device view overwritten with the solution.
        """
        a_tri, b = as_view(a_tri), as_view(b)
        if a_tri.rows != a_tri.cols:
            raise ExecutionError(
                f"trsm: triangle must be square, got {a_tri.shape}"
            )
        if b.rows != a_tri.rows:
            raise ExecutionError(
                f"trsm: B has {b.rows} rows, triangle is {a_tri.rows}"
            )
        self._check_live(a_tri, b)
        k, n = a_tri.rows, b.cols
        flops = k * k * n
        stats = self.stats
        stats.gemm_flops += flops
        stats.n_gemms += 1
        op = _make_op(
            panel_name(tag, k, n), EngineKind.COMPUTE, OpKind.GEMM,
            [device_access(a_tri, False), device_access(b, True)],
            flops=flops, dims=(k, n), tag=tag,
        )
        body = self._body_trsm(op, a_tri, b, lower, unit_diag, trans_a)
        self._issue(stream, op=op, body=body)

    def panel_lu(
        self,
        panel: DeviceBuffer | DeviceView,
        u_out: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        tag: str = "panel-lu",
    ) -> None:
        """In-core unpivoted LU of a device-resident tall panel.

        On return the panel's strict lower part holds the multipliers L
        (unit diagonal implicit), its upper b-by-b part holds U11, and
        *u_out* (b-by-b) holds a clean copy of U11. No pivoting — as the
        paper notes (§6), no TensorCore in-core partial-pivoted LU exists;
        callers must supply matrices that are stable without pivoting
        (e.g. diagonally dominant).
        """
        panel, u_out = as_view(panel), as_view(u_out)
        if u_out.shape != (panel.cols, panel.cols):
            raise ExecutionError(
                f"panel_lu: U is {u_out.shape}, expected "
                f"{(panel.cols, panel.cols)}"
            )
        self._check_live(panel, u_out)
        # LU panel work is m b^2 — half of QR's 2 m b^2
        flops = self.config.panel.flops(panel.rows, panel.cols) // 2
        self._count_panel(flops)
        op = _make_op(
            panel_name(tag, panel.rows, panel.cols), EngineKind.COMPUTE, OpKind.PANEL,
            [device_access(panel, True), device_access(u_out, True)],
            flops=flops, dims=panel.shape, tag=tag,
        )
        self._issue(stream, op=op, body=self._body_panel_lu(op, panel, u_out))

    def panel_cholesky(
        self,
        panel: DeviceBuffer | DeviceView,
        stream: Any,
        *,
        tag: str = "panel-chol",
    ) -> None:
        """In-core Cholesky panel: factor the top b-by-b block of an m-by-b
        SPD panel and triangular-solve the rows below in place
        (``panel[:b] <- chol(panel[:b])``, ``panel[b:] <- panel[b:] L^{-T}``).
        """
        panel = as_view(panel)
        b = panel.cols
        if panel.rows < b:
            raise ExecutionError(
                f"panel_cholesky: panel {panel.shape} shorter than its width"
            )
        self._check_live(panel)
        # b^3/3 for the diagonal block + m b^2 for the TRSM below
        flops = b * b * b // 3 + (panel.rows - b) * b * b
        self._count_panel(flops)
        op = _make_op(
            panel_name(tag, panel.rows, b), EngineKind.COMPUTE, OpKind.PANEL,
            [device_access(panel, True)], flops=flops, dims=panel.shape, tag=tag,
        )
        self._issue(stream, op=op, body=self._body_panel_cholesky(op, panel))

    def _count_panel(self, flops: int) -> None:
        stats = self.stats
        stats.panel_flops += flops
        stats.n_panels += 1

    # -- shared shape checking helpers ----------------------------------------------------

    @staticmethod
    def _gemm_dims(
        c: DeviceView, a: DeviceView, b: DeviceView, trans_a: bool, trans_b: bool
    ) -> tuple[int, int, int]:
        am, ak = (a.cols, a.rows) if trans_a else (a.rows, a.cols)
        bk, bn = (b.cols, b.rows) if trans_b else (b.rows, b.cols)
        if ak != bk:
            raise ShapeError(
                f"gemm inner dims differ: op(A) {am}x{ak}, op(B) {bk}x{bn}"
            )
        if c.shape != (am, bn):
            raise ShapeError(
                f"gemm output is {c.shape}, expected {(am, bn)}"
            )
        return am, bn, ak

    @staticmethod
    def _check_copy_shapes(dst_shape: tuple[int, int], src_shape: tuple[int, int]) -> None:
        if dst_shape != src_shape:
            raise ShapeError(
                f"copy shape mismatch: dst {dst_shape}, src {src_shape}"
            )


def _make_op(
    name: str,
    engine: EngineKind,
    kind: OpKind,
    accesses: list,
    *,
    nbytes: int = 0,
    flops: int = 0,
    dims: tuple[int, ...] = (),
    tag: str | None = None,
) -> SimOp:
    """The op record every backend receives (duration is the backend's:
    priced by the simulator, measured by numeric recording, 0 otherwise)."""
    tags: dict[str, Any] = {} if tag is None else {"tag": tag}
    tags["accesses"] = accesses
    return SimOp(
        name=name, engine=engine, kind=kind, duration=0.0,
        nbytes=nbytes, flops=flops, tags=tags, dims=dims,
    )


def tag_host_region(
    op: SimOp,
    host_reads: tuple[HostRegion, ...],
    host_writes: tuple[HostRegion, ...],
) -> None:
    """Tag a transfer with the identity of the host region it moves, for
    the verifier's redundant-reload and precision passes (recording
    backends only: the key holds an object id, which differs run to run)."""
    if op.kind is OpKind.COPY_H2D:
        region = host_reads[0]
    elif op.kind is OpKind.COPY_D2H:
        region = host_writes[0]
    else:
        return
    op.tags["host_region"] = (
        id(region.matrix), region.row0, region.row1, region.col0, region.col1
    )
    op.tags["host_label"] = region.label()
