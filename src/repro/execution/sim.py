"""Simulated executor: timing without data.

Feeds the executor call stream into the discrete-event simulator. Every
op the base :class:`~repro.execution.base.Executor` builds is priced by
:func:`repro.sim.simulator.price` (the calibrated hardware models) and
enqueued; ``synchronize``/``finish`` run the event loop.
Paper-scale problems (131072 x 131072 = 68 GB matrices) cost only the op
graph, not the data.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.execution.base import Body, DeviceBuffer, Executor
from repro.host.tiled import HostRegion
from repro.sim.ops import OpKind, SimOp
from repro.sim.simulator import GpuSimulator, price
from repro.sim.stream import Event, Stream
from repro.sim.trace import Trace


class SimExecutor(Executor):
    """Executor backed by :class:`~repro.sim.simulator.GpuSimulator`."""

    def __init__(self, config: SystemConfig):
        super().__init__(config)
        self.sim = GpuSimulator(config)
        self.allocator = self.sim.allocator

    # -- memory -----------------------------------------------------------------

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        buf = DeviceBuffer(name=name, rows=rows, cols=cols)
        nbytes = rows * cols * self.config.element_bytes
        buf.payload["allocation"] = self.allocator.alloc(nbytes, name=name)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.freed:
            raise ExecutionError(f"double free of device buffer {buf.name!r}")
        self.allocator.free(buf.payload["allocation"])
        buf.freed = True

    # -- streams ------------------------------------------------------------------

    def stream(self, name: str) -> Stream:
        return self.sim.stream(name)

    def record_event(self, stream: Stream) -> Event:
        return self.sim.record_event(stream)

    def wait_event(self, stream: Stream, event: Event) -> None:
        self.sim.wait_event(stream, event)

    def synchronize(self) -> None:
        # A host-side sync is a barrier: later work cannot start before it.
        self.sim.barrier()
        self.stats.makespan = self.sim.now

    # -- the op hook ------------------------------------------------------------------

    def _issue(
        self,
        stream: Stream,
        *,
        op: SimOp,
        body: Body,
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> None:
        op.duration = price(op, self.config)
        # GEMMs and panels keep their shape in the trace tags (the GEMM
        # dims are (m, n, k); a TRSM's two dims stay untagged)
        if op.kind is OpKind.PANEL:
            op.tags = {"m": op.dims[0], "b": op.dims[1], **op.tags}
        elif len(op.dims) == 3:
            m, n, k = op.dims
            op.tags = {"m": m, "n": n, "k": k, **op.tags}
        self.sim.enqueue(op, stream)

    # -- results ------------------------------------------------------------------------

    def finish(self) -> Trace:
        """Drain all work and return the completed trace."""
        self.synchronize()
        return self.sim.trace
