"""GraphBuilder: drives the existing engines to *emit* task graphs.

The drivers in :mod:`repro.qr`, :mod:`repro.ooc` and :mod:`repro.factor`
are written against the abstract :class:`~repro.execution.base.Executor`
surface. :class:`GraphBuilder` subclasses the eager
:class:`~repro.execution.numeric.NumericExecutor` and overrides its single
op hook (``_issue``) so that every op is recorded as a
:class:`~repro.runtime.task.TileTask` — carrying its engine class, tile
read/write sets, host regions, a cost hint from
:func:`repro.sim.simulator.price` (the same function that times
``SimExecutor`` ops), and the unexecuted numeric closure — instead of
running immediately. Streams and events are real
(:class:`~repro.sim.stream.Stream`), so each recorded op also carries the
stream-FIFO/event edges the driver issued in ``op.deps``, exactly as
``SimExecutor`` records them; the derived dataflow edges go on
``task.deps``. A scheduler then executes the graph later, in any
dataflow-respecting order.

Memory accounting is split in two so both planning and execution match
the legacy executors exactly:

* **build time** — ``alloc``/``free`` hit ``self.allocator`` eagerly, so
  drivers that plan from ``allocator.free_bytes`` (k-split depth, spill
  decisions, §4.1.2 staging buffers) make identical choices, and a
  defective plan fails where it would on the legacy path: an
  over-capacity allocation raises ``OutOfDeviceMemoryError``, a double
  free or a use of a freed buffer raises ``ExecutionError``;
* **run time** — the recorded ``alloc``/``free`` pseudo-tasks replay the
  same sequence against the *backend's* allocator, with payload numpy
  arrays created lazily by the ``alloc`` task and dropped by ``free``.

With ``materialize=False`` the builder skips body closures entirely, so
symbolic graphs can be built from ``HostMatrix.shape_only`` inputs for
simulation and static analysis without allocating host data.
"""

from __future__ import annotations

from repro.config import SystemConfig
from repro.errors import ExecutionError
from repro.execution.base import Body, DeviceBuffer, DeviceView, tag_host_region
from repro.execution.numeric import NumericExecutor
from repro.host.tiled import HostRegion
from repro.runtime.task import TaskGraph
from repro.sim.ops import SimOp
from repro.sim.simulator import price

#: Tag key marking a buffer freed at *build* time. The real ``freed`` flag
#: must stay False until the graph executes (bodies read payload data), so
#: the builder's use-after-free / double-free checks key off this instead.
_GRAPH_FREED = "graph-freed"


class GraphBuilder(NumericExecutor):
    """Executor backend that records a :class:`TaskGraph` instead of
    running ops.

    Parameters
    ----------
    materialize:
        When True (numeric execution), each task keeps the closure the
        legacy executor would have run, operating on the same payload
        arrays — a serial replay is *instruction-identical* to the legacy
        serial run, which is what makes the differential suite's bitwise
        assertions possible. When False (simulation / analysis), bodies
        are dropped and host arrays are never touched.
    """

    def __init__(
        self,
        config: SystemConfig,
        *,
        label: str = "",
        materialize: bool = True,
    ):
        super().__init__(config, record=True)
        self.graph = TaskGraph(config, label=label)
        self.graph.stats = self.stats  # one shared accounting object
        self._materialize = materialize
        # price() reads only the op's kind, bytes, flops and dims; a run
        # issues few distinct tile shapes, so each is priced once
        self._costs: dict[tuple, float] = {}

    # -- the op hook ------------------------------------------------------------

    def _issue(
        self,
        stream,
        *,
        op: SimOp,
        body: Body,
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> None:
        tag_host_region(op, host_reads, host_writes)
        stream.attach(op)
        key = (op.kind, op.nbytes, op.flops, op.dims)
        cost = self._costs.get(key)
        if cost is None:
            cost = self._costs[key] = price(op, self.config)
        self.graph.add_op(
            op,
            body=body if self._materialize else None,
            cost=cost,
            accesses=op.tags["accesses"],
            host_reads=host_reads,
            host_writes=host_writes,
        )

    # -- memory -----------------------------------------------------------------

    def alloc(self, rows: int, cols: int, name: str = "buf") -> DeviceBuffer:
        nbytes = rows * cols * self.config.element_bytes
        buf = DeviceBuffer(name=name, rows=rows, cols=cols)
        # Eager accounting: planning parity with the legacy executors.
        buf.payload["allocation"] = self.allocator.alloc(nbytes, name=name)
        self.graph.add_alloc(buf, nbytes)
        return buf

    def free(self, buf: DeviceBuffer) -> None:
        if buf.freed or buf.payload.get(_GRAPH_FREED):
            raise ExecutionError(f"double free of device buffer {buf.name!r}")
        buf.payload[_GRAPH_FREED] = True
        self.allocator.free(buf.payload["allocation"])
        self.graph.add_free(buf)

    def _check_live(self, *views: DeviceView) -> None:
        # Build-time liveness: payload data does not exist yet (the alloc
        # *task* creates it), so check allocation records and the
        # graph-freed flag rather than the execution-time payload.
        for view in views:
            buf = view.buffer
            if buf.freed or buf.payload.get(_GRAPH_FREED):
                raise ExecutionError(
                    f"use of freed device buffer {buf.name!r}"
                )
            if "allocation" not in buf.payload:
                raise ExecutionError(
                    f"device buffer {buf.name!r} was not allocated by this "
                    "builder"
                )


__all__ = ["GraphBuilder"]
