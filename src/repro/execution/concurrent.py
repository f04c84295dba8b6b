"""Concurrent numeric executor: per-engine worker threads, real overlap.

This is the numeric counterpart of the discrete-event simulator's scheduling
model (see :mod:`repro.sim.simulator` and docs/concurrency.md). Three
worker threads mirror the three hardware engines — H2D DMA, compute, D2H
DMA — and each services its engine's queue in enqueue order, exactly the
per-engine FIFO rule the simulator applies. An op's body runs once all of
its dependencies have completed:

* its stream-FIFO predecessor and awaited events — the semantic
  happens-before edges :class:`~repro.sim.scheduler.StreamProgram` wires
  into ``SimOp.deps`` (identical to what the simulator honours);
* host-coherence edges — execution-only ordering between ops whose host
  regions overlap with at least one writer. CUDA pipelines get these "for
  free" because the host thread blocks on events before touching staging
  memory; here the issuing thread never blocks, so the executor derives
  them from the declared host reads/writes of each copy. They are *not*
  added to ``SimOp.deps``: the recorded program stays comparable
  node-for-node with the simulator's graph.

Because every dependency points at an earlier-issued op, the dependency
relation is a DAG over issue order and the per-engine in-order workers can
always make progress — the executor cannot deadlock on a well-formed
program (a generous timeout converts "impossible" hangs into
:class:`~repro.errors.DeadlockError` rather than a stuck CI job).

numpy GEMMs and copies release the GIL, so a pipelined OOC GEMM or QR run
really does overlap move-in, compute and move-out on a multi-core host —
``repro.bench.concurrency`` measures the resulting wall-clock speedup.

Failure semantics: the first exception raised by any op body is recorded;
subsequent bodies are skipped (their done-flags still set, so the pipeline
drains instead of deadlocking) and the original exception re-raises on the
issuing thread at the next :meth:`ConcurrentNumericExecutor._issue` or
:meth:`ConcurrentNumericExecutor.synchronize`. Failed and skipped ops keep
``start is None`` and are excluded from :meth:`recorded_trace`.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.config import SystemConfig
from repro.errors import DeadlockError
from repro.execution.base import DeviceBuffer
from repro.execution.numeric import NumericExecutor
from repro.host.tiled import HostRegion
from repro.obs.clock import monotonic as _monotonic
from repro.sim.ops import EngineKind, SimOp
from repro.util.regions import host_regions_conflict

#: Per-dependency wait budget. A correct program never hits this (the
#: dependency graph is acyclic by construction); it exists to fail loudly
#: instead of hanging if an executor bug ever breaks that invariant.
_WAIT_TIMEOUT_S = 600.0


@dataclass(eq=False)
class _Task:
    """One dispatched op: its recorded node, body, and execution deps."""

    op: SimOp
    body: Callable[[], None]
    deps: tuple["_Task", ...]
    done: threading.Event = field(default_factory=threading.Event)
    #: Span id of the issuing thread's open span (the driver root), captured
    #: at issue time so the worker can parent the op span across threads.
    obs_parent: int | None = None
    #: Stream the op was issued on; set only when spans are recorded.
    obs_stream: Any = None


class ConcurrentNumericExecutor(NumericExecutor):
    """Numeric executor with one worker thread per hardware engine.

    Drop-in replacement for :class:`NumericExecutor` (always recording):
    same ops, same numerics, but op bodies run on the engine workers as
    soon as their dependencies allow, overlapping H2D/compute/D2H exactly
    as the simulator's timing model assumes. Call :meth:`synchronize`
    before reading results and :meth:`close` when finished (or rely on the
    daemon workers dying with the process).
    """

    def __init__(self, config: SystemConfig):
        super().__init__(config, record=True)
        self._queues: dict[EngineKind, "queue.SimpleQueue[_Task | None]"] = {
            kind: queue.SimpleQueue() for kind in EngineKind
        }
        self._task_of: dict[SimOp, _Task] = {}
        self._inflight: list[_Task] = []
        #: Host-coherence log: id(HostMatrix) -> [(task, region, is_write)].
        self._host_log: dict[int, list[tuple[_Task, HostRegion, bool]]] = {}
        #: Allocation handle -> tasks touching that device buffer.
        self._buffer_pending: dict[int, list[_Task]] = {}
        self._failure: BaseException | None = None
        self._failure_lock = threading.Lock()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker, args=(kind,), name=f"repro-{kind.value}",
                daemon=True,
            )
            for kind in EngineKind
        ]
        for worker in self._workers:
            worker.start()

    # -- worker loop -------------------------------------------------------------

    def _worker(self, engine: EngineKind) -> None:
        """Service one engine's queue in enqueue order (per-engine FIFO)."""
        q = self._queues[engine]
        while True:
            task = q.get()
            if task is None:
                return
            try:
                for dep in task.deps:
                    if not dep.done.wait(_WAIT_TIMEOUT_S):
                        raise DeadlockError([task.op])
                if self._failure is None:
                    task.op.start = self._now()
                    task.body()
                    task.op.end = self._now()
                    task.op.duration = task.op.end - task.op.start
                    if self.obs.enabled and task.obs_stream is not None:
                        self._record_op_span(
                            task.op,
                            task.op.start + self._obs_t0,
                            task.op.end + self._obs_t0,
                            task.obs_stream,
                            parent_id=task.obs_parent,
                        )
            except BaseException as exc:  # noqa: BLE001 - must never kill worker
                task.op.start = None
                task.op.end = None
                with self._failure_lock:
                    if self._failure is None:
                        self._failure = exc
            finally:
                task.done.set()

    def _raise_failure(self) -> None:
        """Re-raise the first worker-side exception on the issuing thread."""
        if self._failure is not None:
            raise self._failure

    # -- dispatch ----------------------------------------------------------------

    def _host_deps(
        self, regions: tuple[HostRegion, ...], write: bool, deps: list[_Task]
    ) -> None:
        """Collect execution deps on earlier ops touching conflicting host
        regions, then log *regions* for later conflict checks."""
        for region in regions:
            key = id(region.matrix)
            log = self._host_log.setdefault(key, [])
            live = [entry for entry in log if not entry[0].done.is_set()]
            for task, other, other_write in live:
                if (write or other_write) and host_regions_conflict(region, other):
                    deps.append(task)
            self._host_log[key] = live

    def _issue(
        self,
        stream: Any,
        *,
        op: SimOp,
        body: Callable[[], None],
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> None:
        """Record the op and dispatch its body to the engine worker."""
        self._raise_failure()
        if self._t0 is None:
            self._t0 = _monotonic()
            if self.obs.enabled:
                self._obs_t0 = self.obs.now()
        assert self.program is not None
        self.program.append(op, stream)
        deps = [self._task_of[d] for d in op.deps if d in self._task_of]
        self._host_deps(host_reads, False, deps)
        self._host_deps(host_writes, True, deps)
        task = _Task(op=op, body=body, deps=tuple(dict.fromkeys(deps)))
        if self.obs.enabled:
            task.obs_parent = self.obs.current_id()
            task.obs_stream = stream
        self._task_of[op] = task
        self._inflight.append(task)
        for access in op.tags["accesses"]:
            self._buffer_pending.setdefault(access[0], []).append(task)
        self._queues[op.engine].put(task)

    # -- lifecycle ---------------------------------------------------------------

    def free(self, buf: DeviceBuffer) -> None:
        """Free a device buffer once all in-flight ops touching it retire."""
        allocation = buf.payload.get("allocation")
        if allocation is not None:
            for task in self._buffer_pending.pop(allocation.handle, ()):
                if not task.done.wait(_WAIT_TIMEOUT_S):
                    raise DeadlockError([task.op])
        super().free(buf)

    def synchronize(self) -> None:
        """Drain all dispatched work; re-raise any worker-side failure."""
        for task in self._inflight:
            if not task.done.wait(_WAIT_TIMEOUT_S):
                raise DeadlockError([task.op])
        if self._t0 is not None:
            self.stats.wall_s = _monotonic() - self._t0
        # Everything is retired: later ops can no longer depend on these
        # tasks (stream FIFO/event deps resolve through _task_of misses as
        # already-satisfied), so drop the bookkeeping.
        self._inflight.clear()
        self._task_of.clear()
        self._host_log.clear()
        self._buffer_pending.clear()
        self._raise_failure()

    def close(self) -> None:
        """Stop the engine workers (idempotent; queued work drains first)."""
        if self._closed:
            return
        self._closed = True
        for q in self._queues.values():
            q.put(None)
        for worker in self._workers:
            worker.join(_WAIT_TIMEOUT_S)
