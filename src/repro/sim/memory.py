"""Capacity-checked device-memory allocator.

Models cudaMalloc over a fixed-size device memory. Both executors route
every device buffer through this allocator, so the paper's §5.2 experiment
("limiting the memory usage to be less than 16GB on V100") is enforced, not
assumed: an OOC plan whose working set exceeds the cap raises
:class:`~repro.errors.OutOfDeviceMemoryError` instead of silently fitting.

The allocator is a byte counter with handle bookkeeping, not an address-space
model: fragmentation is out of scope (real implementations use a handful of
large long-lived buffers, as do our OOC engines).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.errors import AllocationError, OutOfDeviceMemoryError
from repro.util.validation import nonnegative_int, positive_int

_handle_counter = itertools.count()


@dataclass(frozen=True)
class Allocation:
    """A live device allocation."""

    handle: int
    name: str
    nbytes: int


@dataclass(frozen=True)
class MemEvent:
    """One allocator event of a recorded program, positioned in its op list.

    ``position`` is the number of ops issued before the event, so an op at
    issue index ``i`` runs after every event with ``position <= i``. The
    lifetime pass in :mod:`repro.analysis.verify` reconstructs leaks,
    double frees, use-after-free windows and the exact peak from this log.
    """

    kind: str        # "alloc" | "free"
    handle: int
    name: str
    nbytes: int
    position: int


@dataclass
class DeviceAllocator:
    """Tracks live device allocations against a fixed capacity."""

    capacity: int
    used: int = 0
    peak: int = 0
    live: dict[int, Allocation] = field(default_factory=dict)
    n_allocs: int = 0
    n_frees: int = 0

    def __post_init__(self) -> None:
        self.capacity = positive_int(self.capacity, "capacity")

    @property
    def free_bytes(self) -> int:
        """Bytes currently available."""
        return self.capacity - self.used

    def alloc(self, nbytes: int, name: str = "") -> Allocation:
        """Allocate *nbytes*; raises :class:`OutOfDeviceMemoryError` on
        exhaustion (zero-byte allocations are legal, as in CUDA)."""
        nbytes = nonnegative_int(nbytes, "nbytes")
        if nbytes > self.free_bytes:
            raise OutOfDeviceMemoryError(
                requested=nbytes,
                free=self.free_bytes,
                capacity=self.capacity,
                what=name,
            )
        allocation = Allocation(next(_handle_counter), name, nbytes)
        self.live[allocation.handle] = allocation
        self.used += nbytes
        self.peak = max(self.peak, self.used)
        self.n_allocs += 1
        return allocation

    def free(self, allocation: Allocation) -> None:
        """Release a live allocation; double frees raise."""
        if allocation.handle not in self.live:
            raise AllocationError(
                f"free of unknown or already-freed allocation {allocation.name!r}"
            )
        del self.live[allocation.handle]
        self.used -= allocation.nbytes
        self.n_frees += 1

    def free_all(self) -> None:
        """Release everything (device reset)."""
        self.live.clear()
        self.used = 0

    def check_balanced(self) -> None:
        """Raise unless every allocation has been freed (leak detector for
        tests and for the OOC engines' own teardown paths)."""
        if self.live:
            names = ", ".join(a.name or "<anon>" for a in self.live.values())
            raise AllocationError(
                f"{len(self.live)} device allocations leaked: {names}"
            )
