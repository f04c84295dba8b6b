"""Placement pass: partition a :class:`~repro.runtime.task.TaskGraph`
across a device pool.

The tile-DAG runtime records engine runs as task graphs whose edges are
derived from data accesses (PR 6). Multi-device execution starts from
the same graph: every op task is assigned to the device that *owns* the
host data it touches (block-cyclic ownership, :mod:`repro.dist.shard`),
buffers live where their first toucher runs, allocator pseudo-tasks
follow their buffer, and every dependency edge that crosses a device
boundary while carrying data becomes an explicit :class:`TransferTask`
priced by the topology's links.

The output is one :class:`DeviceProgram` per device — each satisfying
the captured-program protocol (``config`` / ``ops`` / ``mem_events`` /
``stats`` / ``label`` / ``volume_hint``) — so
:func:`repro.analysis.verify.verify_program` proves every device's
slice race-free, leak-free and within its per-device memory budget,
plus the transfer list with per-link byte totals for communication
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.capture import MemEvent
from repro.analysis.verify import AnalysisReport, verify_program
from repro.dist.shard import ShardedMatrix
from repro.dist.topology import DeviceTopology
from repro.errors import ValidationError
from repro.execution.base import RunStats
from repro.host.tiled import HostRegion
from repro.runtime.task import TaskGraph, TileTask
from repro.sim.ops import OpKind
from repro.util.regions import overlap_elements


@dataclass(frozen=True)
class TransferTask:
    """One explicit inter-device transfer inserted by the placement pass.

    Carries the dependency edge it materializes (``producer`` wrote the
    data on *src*; ``consumer`` reads it on *dst*) and the overlap bytes
    that must move. ``cost`` is the topology's link time for that
    volume (host-staged when no peer link exists).
    """

    xfer_id: int
    src: int
    dst: int
    nbytes: int
    producer: TileTask
    consumer: TileTask
    cost: float

    @property
    def name(self) -> str:
        return (
            f"xfer#{self.xfer_id} dev{self.src}->dev{self.dst} "
            f"({self.producer.name} -> {self.consumer.name})"
        )


@dataclass
class DeviceProgram:
    """One device's slice of a partitioned task graph.

    Satisfies the captured-program protocol consumed by
    :func:`repro.analysis.verify.verify_program`: ``ops`` keeps the
    graph's emission order (restricted to this device) with the derived
    dataflow deps, and ``mem_events`` are re-positioned against that
    restricted op list.
    """

    device: int
    config: object
    label: str
    tasks: list[TileTask] = field(default_factory=list)
    mem_events: list[MemEvent] = field(default_factory=list)
    stats: RunStats = field(default_factory=RunStats)
    volume_hint: tuple[str, int, int, int] | None = None

    @property
    def ops(self):
        return [t.op for t in self.tasks if t.op is not None]

    def peak_bytes(self) -> int:
        """Exact live-byte high-water mark from the allocator log."""
        live = peak = 0
        for ev in self.mem_events:
            live += ev.nbytes if ev.kind == "alloc" else -ev.nbytes
            peak = max(peak, live)
        return peak


@dataclass
class Placement:
    """Result of partitioning one task graph across a topology."""

    graph: TaskGraph
    topology: DeviceTopology
    device_of: dict[int, int]
    programs: list[DeviceProgram]
    transfers: list[TransferTask]

    @property
    def total_transfer_bytes(self) -> int:
        return sum(t.nbytes for t in self.transfers)

    def link_bytes(self) -> dict[tuple[int, int], int]:
        """Bytes moved per (src, dst) device pair."""
        out: dict[tuple[int, int], int] = {}
        for t in self.transfers:
            key = (t.src, t.dst)
            out[key] = out.get(key, 0) + t.nbytes
        return out

    def device_bytes(self) -> list[tuple[int, int]]:
        """Per-device (sent, received) transfer bytes."""
        sent = [0] * self.topology.n_devices
        recv = [0] * self.topology.n_devices
        for t in self.transfers:
            sent[t.src] += t.nbytes
            recv[t.dst] += t.nbytes
        return list(zip(sent, recv))

    def verify(
        self, *, budget_bytes: int | None = None
    ) -> list[AnalysisReport]:
        """Run the static plan verifier on every device's program
        (races, lifetimes, exact peak memory vs the per-device budget)."""
        budget = (
            budget_bytes
            if budget_bytes is not None
            else self.topology.config.usable_device_bytes
        )
        return [
            verify_program(prog, budget_bytes=budget) for prog in self.programs
        ]


def _edge_payload_bytes(
    producer: TileTask, consumer: TileTask, element_bytes: int
) -> int:
    """Bytes the consumer actually reads of what the producer wrote.

    Device dataflow: overlap of the producer's write rects with the
    consumer's read/write rects. Host coherence: overlap of the
    producer's host writes with the consumer's host reads.
    """
    words = 0
    for wa in producer.accesses:
        if not wa[5]:
            continue
        for ra in consumer.accesses:
            if wa[0] == ra[0]:
                words += overlap_elements(
                    (wa[1], wa[2]), (wa[3], wa[4]), (ra[1], ra[2]), (ra[3], ra[4])
                )
    for wr in producer.host_writes:
        for rr in consumer.host_reads:
            if wr.matrix is rr.matrix:
                words += overlap_elements(
                    (wr.row0, wr.row1), (wr.col0, wr.col1),
                    (rr.row0, rr.row1), (rr.col0, rr.col1),
                )
    return words * element_bytes


def _anchor_device(
    task: TileTask, owner_of: Callable[[HostRegion], int | None]
) -> int | None:
    """Ownership anchor of an op task: the owner of the first host region
    it touches on a sharded matrix (reads before writes: a transfer is
    placed where its source data lives)."""
    for region in (*task.host_reads, *task.host_writes):
        dev = owner_of(region)
        if dev is not None:
            return dev
    return None


def partition_graph(
    graph: TaskGraph,
    sharded: ShardedMatrix | tuple[ShardedMatrix, ...],
    topology: DeviceTopology,
    *,
    default_device: int = 0,
    pin: dict[str, int] | None = None,
    remap: dict[int, int] | None = None,
) -> Placement:
    """Partition *graph* across *topology* by tile ownership.

    Assignment rules, in order:

    1. an op touching an already-homed device buffer runs on that
       buffer's home (buffer affinity — a buffer's home is the device of
       its first toucher, or a *pin* entry mapping the buffer's name to
       a device). Affinity wins over data ownership because the task
       graph gives every conflicting access pair a *direct* edge:
       keeping all touches of a buffer on one device means every
       same-device hazard pair keeps its edge, so the per-device race
       proof stays sound without projecting cross-device ordering.
       Pinning covers the broadcast-consumer case — a scratch buffer
       whose first touch *reads another device's staged data* (e.g. a
       TSQR pushdown factor) and must still live with its consumer;
    2. an op touching a host region of a sharded matrix runs on the
       region's owner (:meth:`ShardedMatrix.owner_of_region`);
    3. remaining ops inherit the device of their first assigned
       dependency, else *default_device*;
    4. ``alloc``/``free`` pseudo-tasks follow their buffer's home.

    Every dependency edge between op tasks on different devices that
    carries data (overlapping producer writes / consumer reads) becomes
    one :class:`TransferTask` priced by the topology.

    *remap* redirects logical devices to physical ones — the device-loss
    regraft of :mod:`repro.dist.recovery`: ownership and pins are still
    computed against the logical layout, then every resolved device is
    mapped through ``remap`` before it lands in ``device_of`` /
    ``buffer_home``. Edges between logical devices that collapse onto
    one physical device naturally stop being transfers. Remap targets
    (and every placed task) must be surviving members of *topology*.
    """
    shards = sharded if isinstance(sharded, tuple) else (sharded,)
    if not shards:
        raise ValidationError("partition_graph needs at least one shard map")
    for s in shards:
        if s.layout.n_devices > topology.n_devices:
            raise ValidationError(
                f"layout spans {s.layout.n_devices} devices; topology has "
                f"{topology.n_devices}"
            )
    by_matrix = {id(s.matrix): s for s in shards}

    def owner_of(region: HostRegion) -> int | None:
        shard = by_matrix.get(id(region.matrix))
        if shard is None:
            return None
        return shard.owner_of_region(region)

    if remap:
        for logical, physical in remap.items():
            for dev, what in ((logical, "source"), (physical, "target")):
                if not 0 <= dev < topology.n_devices:
                    raise ValidationError(
                        f"remap {what} device {dev} outside the "
                        f"{topology.n_devices}-device topology"
                    )
            if physical in topology.lost:
                raise ValidationError(
                    f"remap target device {physical} is itself lost"
                )

    def phys(dev: int) -> int:
        return remap.get(dev, dev) if remap else dev

    eb = graph.config.element_bytes
    device_of: dict[int, int] = {}
    buffer_home: dict[int, int] = {}
    if pin:
        for dev in pin.values():
            if not 0 <= dev < topology.n_devices:
                raise ValidationError(
                    f"pin names device {dev}; topology has "
                    f"{topology.n_devices} devices"
                )
        # seed buffer homes from the pin map (alloc tasks carry the name)
        for task in graph.tasks:
            if task.mem == "alloc" and task.buffer.name in pin:
                handle = task.buffer.payload["allocation"].handle
                buffer_home[handle] = phys(pin[task.buffer.name])

    def buffer_handles(task: TileTask) -> list[int]:
        return [acc[0] for acc in task.accesses]

    # pass 1: op tasks, in emission order
    for task in graph.tasks:
        if task.mem:
            continue
        dev = None
        for handle in buffer_handles(task):
            if handle in buffer_home:
                dev = buffer_home[handle]
                break
        if dev is None:
            anchor = _anchor_device(task, owner_of)
            dev = None if anchor is None else phys(anchor)
        if dev is None:
            for dep in task.deps:
                if dep.task_id in device_of:
                    dev = device_of[dep.task_id]
                    break
        if dev is None:
            dev = phys(default_device)
        if dev in topology.lost:
            raise ValidationError(
                f"task {task.name} placed on lost device {dev}; the remap "
                f"must regraft every lost device onto a survivor"
            )
        device_of[task.task_id] = dev
        for handle in buffer_handles(task):
            buffer_home.setdefault(handle, dev)

    # pass 2: allocator pseudo-tasks follow their buffer's home
    for task in graph.tasks:
        if not task.mem:
            continue
        handle = task.buffer.payload["allocation"].handle
        device_of[task.task_id] = buffer_home.get(handle, default_device)

    # per-device programs: emission order restricted to the device, with
    # mem events re-positioned against the restricted op list
    programs = [
        DeviceProgram(
            device=d,
            config=topology.device_config(d),
            label=f"{graph.label or 'graph'}@dev{d}",
        )
        for d in range(topology.n_devices)
    ]
    ops_seen = [0] * topology.n_devices
    for task in graph.tasks:
        d = device_of[task.task_id]
        prog = programs[d]
        if task.mem:
            handle = task.buffer.payload["allocation"].handle
            prog.mem_events.append(
                MemEvent(
                    task.mem, handle, task.buffer.name, task.nbytes,
                    ops_seen[d], True,
                )
            )
            prog.tasks.append(task)
        else:
            prog.tasks.append(task)
            ops_seen[d] += 1
            if task.op is not None:
                if task.op.kind is OpKind.COPY_H2D:
                    prog.stats.h2d_bytes += task.op.nbytes  # lint: allow[runstats-counting] splits ops the builder already counted
                elif task.op.kind is OpKind.COPY_D2H:
                    prog.stats.d2h_bytes += task.op.nbytes  # lint: allow[runstats-counting] splits ops the builder already counted

    # explicit transfers on cross-device data edges
    transfers: list[TransferTask] = []
    for task in graph.tasks:
        if task.mem:
            continue
        dst = device_of[task.task_id]
        for dep in task.deps:
            if dep.mem:
                continue
            src = device_of[dep.task_id]
            if src == dst:
                continue
            nbytes = _edge_payload_bytes(dep, task, eb)
            if nbytes == 0:
                continue  # pure ordering edge (anti/output dep): no data
            transfers.append(
                TransferTask(
                    xfer_id=len(transfers),
                    src=src,
                    dst=dst,
                    nbytes=nbytes,
                    producer=dep,
                    consumer=task,
                    cost=topology.transfer_time(src, dst, nbytes),
                )
            )

    return Placement(
        graph=graph,
        topology=topology,
        device_of=device_of,
        programs=programs,
        transfers=transfers,
    )


__all__ = [
    "DeviceProgram",
    "Placement",
    "TransferTask",
    "partition_graph",
]
