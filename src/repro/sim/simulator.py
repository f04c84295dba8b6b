"""The discrete-event GPU simulator.

Scheduling model
----------------
Each hardware engine (H2D DMA, D2H DMA, compute) consumes its queue in
*enqueue order* — exactly how CUDA hardware queues behave for a single
device: copies on the same DMA engine serialize in issue order even when
issued on different streams, and large GEMMs serialize on the compute
engine. An op starts when (a) its engine has retired everything enqueued
before it and (b) all its dependencies (stream FIFO predecessors and
awaited events) have completed.

This makes simulated time deterministic and reproduces the pipelines of
the paper's Figures 7-15: move-ins, GEMMs and move-outs on different
streams overlap across engines but serialize within one.

Deadlock (e.g. engine-queue head waiting on an event recorded behind it)
is detected and raised — real CUDA would simply hang.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.config import SystemConfig
from repro.errors import DeadlockError
from repro.hw.transfer import Direction
from repro.sim.memory import DeviceAllocator
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.sim.scheduler import StreamProgram
from repro.sim.stream import Event, Stream
from repro.sim.trace import Trace
from repro.util.units import gemm_flops


@dataclass
class GpuSimulator:
    """Event-driven simulator of one GPU with three concurrent engines."""

    config: SystemConfig
    allocator: DeviceAllocator = field(init=False)
    #: The recorded stream program (shared graph machinery with the
    #: concurrent numeric executor — see :mod:`repro.sim.scheduler`).
    program: StreamProgram = field(init=False)
    _queues: dict[EngineKind, deque[SimOp]] = field(init=False)
    _engine_free: dict[EngineKind, float] = field(init=False)
    _trace: Trace = field(init=False)
    _pending: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        self.allocator = DeviceAllocator(self.config.usable_device_bytes)
        self.program = StreamProgram()
        self._queues = {kind: deque() for kind in EngineKind}
        self._engine_free = {kind: 0.0 for kind in EngineKind}
        self._trace = Trace()

    # -- stream / event API ---------------------------------------------------

    def stream(self, name: str) -> Stream:
        """Create a new stream."""
        return self.program.stream(name)

    def record_event(self, stream: Stream) -> Event:
        """Record an event on *stream* (captures prior work on the stream)."""
        return self.program.record_event(stream)

    def wait_event(self, stream: Stream, event: Event) -> None:
        """Future work on *stream* waits for *event*."""
        self.program.wait_event(stream, event)

    # -- enqueue ---------------------------------------------------------------

    def enqueue(self, op: SimOp, stream: Stream) -> SimOp:
        """Submit *op* on *stream*; it will execute when the simulator runs."""
        self.program.append(op, stream)
        self._queues[op.engine].append(op)
        self._pending += 1
        return op

    # -- execution --------------------------------------------------------------

    def run(self) -> Trace:
        """Drain all queues, assigning start/end times; returns the trace.

        Incremental: may be called repeatedly as more work is enqueued;
        engine clocks and the trace persist across calls (like repeatedly
        synchronizing a device).
        """
        progressed = True
        while self._pending and progressed:
            progressed = False
            for engine in EngineKind:
                queue = self._queues[engine]
                while queue and all(d.scheduled for d in queue[0].deps):
                    op = queue.popleft()
                    ready = max(
                        (d.end for d in op.deps), default=0.0
                    )
                    op.start = max(self._engine_free[engine], ready)
                    op.end = op.start + op.duration
                    self._engine_free[engine] = op.end
                    self._trace.add(op)
                    self._pending -= 1
                    progressed = True
        if self._pending:
            stuck = [op for q in self._queues.values() for op in q]
            raise DeadlockError(stuck)
        return self._trace

    def barrier(self) -> float:
        """Model a host-side device synchronization.

        Drains all pending work, then advances every engine clock to the
        resulting makespan: work enqueued *after* the barrier cannot start
        before it (the host was blocked until now). Returns the barrier
        time.
        """
        self.run()
        now = self._trace.makespan
        for engine in self._engine_free:
            self._engine_free[engine] = max(self._engine_free[engine], now)
        return now

    @property
    def trace(self) -> Trace:
        """The trace accumulated so far."""
        return self._trace

    @property
    def now(self) -> float:
        """Current simulated time (end of the last retired op)."""
        return self._trace.makespan

    # -- convenience op builders (durations from the config's models) ---------

    def _priced(self, op: SimOp) -> SimOp:
        op.duration = price(op, self.config)
        return op

    def op_h2d(self, nbytes: int, name: str, **tags) -> SimOp:
        """Build (not enqueue) a host-to-device copy op."""
        return self._priced(SimOp(
            name=name, engine=EngineKind.H2D, kind=OpKind.COPY_H2D,
            duration=0.0, nbytes=nbytes, tags=tags,
        ))

    def op_d2h(self, nbytes: int, name: str, **tags) -> SimOp:
        """Build a device-to-host copy op."""
        return self._priced(SimOp(
            name=name, engine=EngineKind.D2H, kind=OpKind.COPY_D2H,
            duration=0.0, nbytes=nbytes, tags=tags,
        ))

    def op_d2d(self, nbytes: int, name: str, **tags) -> SimOp:
        """Build an on-device copy op (runs on the compute engine)."""
        return self._priced(SimOp(
            name=name, engine=EngineKind.COMPUTE, kind=OpKind.COPY_D2D,
            duration=0.0, nbytes=nbytes, tags=tags,
        ))

    def op_gemm(self, m: int, n: int, k: int, name: str, **tags) -> SimOp:
        """Build an in-core GEMM op timed by the shape-efficiency model."""
        return self._priced(SimOp(
            name=name, engine=EngineKind.COMPUTE, kind=OpKind.GEMM,
            duration=0.0, flops=gemm_flops(m, n, k), dims=(m, n, k),
            tags={"m": m, "n": n, "k": k, **tags},
        ))

    def op_panel(self, m: int, b: int, name: str, **tags) -> SimOp:
        """Build an in-core panel-factorization op."""
        return self._priced(SimOp(
            name=name, engine=EngineKind.COMPUTE, kind=OpKind.PANEL,
            duration=0.0, flops=self.config.panel.flops(m, b), dims=(m, b),
            tags={"m": m, "b": b, **tags},
        ))


#: TRSM runs below GEMM rate on TensorCore (serial dependency chain in the
#: triangular solve); cuBLAS achieves roughly half.
TRSM_EFFICIENCY = 0.5

_COPY_DIRECTION = {
    OpKind.COPY_H2D: Direction.H2D,
    OpKind.COPY_D2H: Direction.D2H,
    OpKind.COPY_D2D: Direction.D2D,
}


def price(op: SimOp, config: SystemConfig) -> float:
    """Model seconds of one device op under *config*'s hardware models.

    The one cost function of the library: :class:`SimExecutor` durations
    and :class:`~repro.runtime.builder.GraphBuilder` cost hints both come
    from here, so the legacy simulator and the DAG runtime price every op
    identically. Compute ops are priced from ``op.dims`` (see
    :class:`~repro.sim.ops.SimOp`) and ``op.flops``.
    """
    direction = _COPY_DIRECTION.get(op.kind)
    if direction is not None:
        return config.transfer.time(op.nbytes, direction)
    if op.kind is OpKind.PANEL:
        # QR panels take the calibrated panel time; LU (half the flops)
        # and Cholesky panels run at the same rate, so scale by flop share
        m, b = op.dims
        return config.panel.time(m, b) * (op.flops / max(config.panel.flops(m, b), 1))
    if len(op.dims) == 3:
        return config.gemm.time(*op.dims, config.precision)
    k, n = op.dims
    rate = config.gemm.rate(k, n, k, config.precision)
    return config.gpu.kernel_launch_s + op.flops / (rate * TRSM_EFFICIENCY)
