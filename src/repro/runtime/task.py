"""Tile-task DAG core: tasks, dataflow wiring, and the graph container.

A :class:`TileTask` is one unit of work bound to a hardware engine class
(H2D DMA, compute, D2H DMA — :class:`~repro.sim.ops.EngineKind`) plus the
two allocator pseudo-tasks (``alloc``/``free``). An engine run is
*recorded* as a :class:`TaskGraph` (by
:class:`~repro.runtime.builder.GraphBuilder`), which keeps two relations
over the same ops:

* ``op.deps`` — the **issued program order**: the stream-FIFO and event
  edges the driver issued, exactly as every stream executor (serial and
  threaded numeric, the simulator) wires them. This is the order the
  legacy executors and ``SimExecutor`` run;
* ``task.deps`` — the **dataflow** edges the DAG scheduler runs, derived
  purely from declared data accesses (below). :func:`dataflow_ops`
  projects them onto cloned ops for consumers that want ``SimOp`` lists.

Dataflow edges come from three rules:

* **device dataflow** — a task depends on the earlier tasks whose device
  accesses overlap one of its own with at least one writer (the same
  conflict predicate the race detector applies) and are still live in
  the buffer's :class:`~repro.util.regions.RegionIndex`: a write drops
  the entries it fully covers, so per element only the last writer and
  the readers since are kept. Every hazard pair is therefore ordered by
  a *path* of edges — a direct one, or one through the covering write —
  and the happens-before closure equals that of all-pairs wiring;
* **host coherence** — the same rule over declared host-region reads and
  writes (spill/reload round trips through host staging are ordered
  without any host-side blocking);
* **allocator order** — ``alloc``/``free`` tasks act as whole-buffer
  writers (a buffer's first toucher waits for its allocation, its free
  waits for its last toucher) and are additionally chained in emission
  order, so every schedule replays the allocator sequence of the legacy
  executors and the exact peak of §5.2's memory accounting is preserved.

The graph is the program :func:`repro.analysis.verify.verify_program`
checks (``config`` / ``ops`` / ``mem_events`` / ``stats`` / ``label`` /
``volume_hint``): races under either relation, lifetimes, exact peak
memory, §3.2 transfer volume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.config import SystemConfig
from repro.errors import DeadlockError
from repro.execution.base import DeviceBuffer, RunStats
from repro.host.tiled import HostRegion
from repro.sim.memory import MemEvent
from repro.sim.ops import EngineKind, OpKind, SimOp
from repro.util.regions import RegionIndex, accesses_conflict

#: Device access record: ``(handle, row0, row1, col0, col1, is_write)`` —
#: identical to :data:`repro.sim.scheduler.DeviceAccess`.
Access = tuple[int, int, int, int, int, bool]


@dataclass(eq=False)
class TileTask:
    """One node of a task graph.

    Identity semantics (``eq=False``): dependency sets hold tasks
    directly. Real work carries its recorded :class:`~repro.sim.ops.SimOp`
    in ``op`` (mem tasks have ``op=None`` and ``mem`` set), an optional
    executable ``body`` (numeric closures; ``None`` for symbolic graphs),
    and a ``cost`` hint in model seconds that schedulers and the simulated
    backend may use.
    """

    task_id: int
    op: SimOp | None = None
    mem: str = ""                 # "" | "alloc" | "free"
    body: Callable[[], None] | None = None
    cost: float = 0.0
    buffer: DeviceBuffer | None = None
    nbytes: int = 0
    deps: list["TileTask"] = field(default_factory=list)
    accesses: tuple[Access, ...] = ()
    host_reads: tuple[HostRegion, ...] = ()
    host_writes: tuple[HostRegion, ...] = ()

    @property
    def name(self) -> str:
        if self.op is not None:
            return self.op.name
        what = self.buffer.name if self.buffer is not None else "?"
        return f"{self.mem} {what}"

    @property
    def engine(self) -> EngineKind | None:
        """Engine class of the task (``None`` for allocator tasks)."""
        return self.op.engine if self.op is not None else None

    @property
    def kind(self) -> OpKind | None:
        return self.op.kind if self.op is not None else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TileTask({self.task_id}, {self.name!r})"


class TaskGraph:
    """A recorded tile-task DAG, ready to schedule, simulate, or verify.

    Satisfies the program protocol consumed by
    :func:`repro.analysis.verify.verify_program`: ``ops`` is the
    emission-ordered list of real op nodes (allocator tasks excluded)
    whose ``deps`` are the issued stream-FIFO/event edges, and
    ``mem_events`` is the allocator log positioned against that op list.
    The dataflow edges live on ``tasks`` (see module docstring).
    """

    def __init__(self, config: SystemConfig, label: str = ""):
        self.config = config
        self.label = label
        self.tasks: list[TileTask] = []
        self.mem_events: list[MemEvent] = []
        self.stats = RunStats()
        #: §3.2 transfer-volume model this program should respect:
        #: ``(model, m, n, b)`` with model ``"blocking"`` or ``"recursive"``;
        #: None for programs with no closed-form bound (GEMM).
        self.volume_hint: tuple[str, int, int, int] | None = None
        self._ops: list[SimOp] = []
        # dataflow wiring state: live accesses per buffer and per host matrix
        self._device_index = RegionIndex()
        self._host_index = RegionIndex()
        self._last_mem: TileTask | None = None

    # -- protocol ---------------------------------------------------------------

    @property
    def ops(self) -> list[SimOp]:
        """Emission-ordered real ops with their issued stream-order deps."""
        return self._ops

    def __len__(self) -> int:
        return len(self._ops)

    @property
    def n_tasks(self) -> int:
        """All tasks including allocator pseudo-tasks."""
        return len(self.tasks)

    # -- construction ------------------------------------------------------------

    def _link(self, task: TileTask, deps: Iterable[TileTask]) -> None:
        """Append *deps* to ``task.deps`` in first-seen order, each once,
        never the task itself."""
        known = task.deps
        for dep in dict.fromkeys(deps):
            if dep is not task and dep not in known:
                known.append(dep)

    def add_op(
        self,
        op: SimOp,
        *,
        body: Callable[[], None] | None = None,
        cost: float = 0.0,
        accesses: Iterable[Access] = (),
        host_reads: tuple[HostRegion, ...] = (),
        host_writes: tuple[HostRegion, ...] = (),
    ) -> TileTask:
        """Record one real op; dataflow dependencies are derived from its
        device accesses and host regions (see module docstring)."""
        task = TileTask(
            task_id=len(self.tasks),
            op=op,
            body=body,
            cost=cost,
            accesses=tuple(accesses),
            host_reads=host_reads,
            host_writes=host_writes,
        )
        deps: list[TileTask] = []
        device = self._device_index
        for handle, r0, r1, c0, c1, write in task.accesses:
            deps += device.add(task, handle, (r0, r1), (c0, c1), write)
        for region in host_reads:
            deps.extend(self._host_index.add_host(task, region, False))
        for region in host_writes:
            deps.extend(self._host_index.add_host(task, region, True))
        self._link(task, deps)
        self.tasks.append(task)
        self._ops.append(op)
        return task

    def _add_mem(self, kind: str, buf: DeviceBuffer, nbytes: int) -> TileTask:
        handle = buf.payload["allocation"].handle
        task = TileTask(
            task_id=len(self.tasks), mem=kind, buffer=buf, nbytes=nbytes
        )
        # whole-buffer write: orders the task against every touch of the
        # buffer (first toucher waits for alloc; free waits for the last)
        deps = self._device_index.add(
            task, handle, (0, max(buf.rows, 1)), (0, max(buf.cols, 1)), True
        )
        if self._last_mem is not None:
            deps.append(self._last_mem)  # emission-order allocator chain
        self._link(task, deps)
        self._last_mem = task
        self.tasks.append(task)
        self.mem_events.append(
            MemEvent(kind, handle, buf.name, nbytes, len(self._ops))
        )
        return task

    def add_alloc(self, buf: DeviceBuffer, nbytes: int) -> TileTask:
        """Record a device allocation as a schedulable pseudo-task."""
        return self._add_mem("alloc", buf, nbytes)

    def add_free(self, buf: DeviceBuffer) -> TileTask:
        """Record a deferred free: it runs once every task touching the
        buffer has completed (its dataflow deps guarantee exactly that)."""
        return self._add_mem("free", buf, buf.payload["allocation"].nbytes)

    def add_dep(self, task: TileTask, dep: TileTask) -> None:
        """Add an explicit edge ``dep -> task`` (tests, adapters). Unlike
        derived edges this may create a cycle — :meth:`validate` (run by
        every scheduler entry point) turns that into a
        :class:`~repro.errors.DeadlockError` instead of a hang."""
        self._link(task, [dep])

    # -- structure checks ---------------------------------------------------------

    def validate(self) -> None:
        """Kahn's algorithm over the task DAG; cyclic graphs raise
        :class:`~repro.errors.DeadlockError` naming the stuck tasks."""
        indegree: dict[int, int] = {
            t.task_id: len(t.deps) for t in self.tasks
        }
        dependents: dict[int, list[TileTask]] = {}
        for t in self.tasks:
            for dep in t.deps:
                dependents.setdefault(dep.task_id, []).append(t)
        ready = [t for t in self.tasks if not t.deps]
        done = 0
        while ready:
            task = ready.pop()
            done += 1
            for dependent in dependents.get(task.task_id, ()):
                indegree[dependent.task_id] -= 1
                if indegree[dependent.task_id] == 0:
                    ready.append(dependent)
        if done != len(self.tasks):
            stuck = [t for t in self.tasks if indegree[t.task_id] > 0]
            raise DeadlockError(stuck)

    def dataflow_order(self) -> list[list[int]]:
        """The dataflow over :attr:`ops`: per op, the indices of the ops
        its task depends on (edges through allocator tasks dropped, as in
        :func:`dataflow_ops`)."""
        index = {op: i for i, op in enumerate(self._ops)}
        preds: list[list[int]] = [[] for _ in self._ops]
        for task in self.tasks:
            i = index.get(task.op)
            if i is not None:
                preds[i] = [
                    index[dep.op] for dep in task.deps if dep.op in index
                ]
        return preds


def dataflow_ops(tasks: Iterable[TileTask]) -> list[SimOp]:
    """The real ops of *tasks* as clones whose ``deps`` are the tasks'
    dataflow edges, in task order.

    Edges to allocator tasks, to later tasks and to tasks outside *tasks*
    are dropped. A clone carries its source's name, engine, kind, bytes,
    flops, dims and tags, takes ``task.cost`` as its duration, and is not
    on any stream, so the simulator can enqueue it and the recorded op
    stays untouched.
    """
    clones: dict[int, SimOp] = {}
    for task in tasks:
        src = task.op
        if src is None:
            continue
        clone = clones[task.task_id] = SimOp(
            name=src.name,
            engine=src.engine,
            kind=src.kind,
            duration=task.cost,
            nbytes=src.nbytes,
            flops=src.flops,
            tags=dict(src.tags),
            dims=src.dims,
        )
        clone.deps.update(
            clones[dep.task_id] for dep in task.deps if dep.task_id in clones
        )
    return list(clones.values())


def edges_consistent(graph: TaskGraph) -> bool:
    """Whether a graph's dataflow agrees with its issued program order.

    Two directions are proved:

    1. *No contradiction*: every dataflow edge points backward in issue
       order, so the DAG never inverts an ordering the issued program
       established. (Host-coherence edges may *add* ordering the stream
       program leaves to the threaded executor's host tracking — that is
       a refinement, not a conflict.)
    2. *No dropped dataflow*: every issued stream/event edge between two
       ops with conflicting device accesses is covered by the dataflow
       happens-before closure.
    """
    reach = [0] * len(graph.ops)  # bitmask of ops that happen-before op i
    for i, preds in enumerate(graph.dataflow_order()):
        mask = 1 << i
        for j in preds:
            if j >= i:
                return False
            mask |= reach[j]
        reach[i] = mask
    issued = {op: i for i, op in enumerate(graph.ops)}
    for i, op in enumerate(graph.ops):
        for dep in op.deps:
            j = issued.get(dep)
            if j is None or not _device_conflict(op, dep):
                continue
            if not reach[i] & (1 << j):
                return False
    return True


def _device_conflict(a: SimOp, b: SimOp) -> bool:
    """Whether two ops touch overlapping device data with a writer."""
    for access_a in a.tags.get("accesses", ()):
        for access_b in b.tags.get("accesses", ()):
            if accesses_conflict(access_a, access_b):
                return True
    return False


__all__ = [
    "Access",
    "TaskGraph",
    "TileTask",
    "dataflow_ops",
    "edges_consistent",
]
