"""CUDA-like streams and events for the simulator.

Semantics mirror the CUDA execution model the paper programs against:

* ops enqueued on one stream execute in FIFO order;
* ops on different streams may overlap whenever their engines are free;
* an :class:`Event` recorded on a stream completes when every op enqueued
  on that stream *before* the record has completed;
* ``wait_event`` makes every op enqueued on the waiting stream *after* the
  wait depend on the event.

Streams only build the dependency graph; timing is the simulator's job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import StreamError
from repro.sim.ops import SimOp

_stream_counter = itertools.count()
_event_counter = itertools.count()


@dataclass(eq=False)
class Event:
    """A marker in a stream; depends on the op that was last when recorded."""

    event_id: int = field(default_factory=lambda: next(_event_counter))
    #: The op whose completion triggers the event; ``None`` = already done
    #: (recorded on an empty stream), matching CUDA's behaviour.
    op: SimOp | None = None
    recorded: bool = False


@dataclass(eq=False)
class Stream:
    """An in-order queue of ops."""

    name: str
    stream_id: int = field(default_factory=lambda: next(_stream_counter))
    last_op: SimOp | None = None
    #: Events subsequent ops on this stream must wait for (cleared into each
    #: op's dependency set as ops are enqueued).
    pending_waits: list[Event] = field(default_factory=list)

    def attach(self, op: SimOp) -> None:
        """Bind *op* to this stream, wiring FIFO and event dependencies.

        The op keeps the stream's *name*, not the stream: the stream holds
        its last op, so a back reference would form a reference cycle.
        """
        if op.stream is not None:
            raise StreamError(f"op {op.name!r} is already enqueued")
        op.stream = self.name
        if self.last_op is not None:
            op.deps.add(self.last_op)
        for event in self.pending_waits:
            if not event.recorded:
                raise StreamError(
                    f"stream {self.name!r} waits on an unrecorded event"
                )
            if event.op is not None:
                op.deps.add(event.op)
        self.pending_waits.clear()
        self.last_op = op

    def record(self) -> Event:
        """Record an event capturing all work enqueued on this stream so far."""
        return Event(op=self.last_op, recorded=True)

    def wait(self, event: Event) -> None:
        """Make all *future* ops on this stream wait for *event*."""
        if not event.recorded:
            raise StreamError(
                f"stream {self.name!r}: cannot wait on an unrecorded event"
            )
        self.pending_waits.append(event)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Stream({self.name!r})"
