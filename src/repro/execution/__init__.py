"""Executor layer: one device-programming interface with its op vocabulary
(:mod:`repro.execution.base`) and the numeric serial, numeric concurrent
and simulated backends."""

from repro.execution.base import DeviceBuffer, DeviceView, Executor, RunStats, as_view
from repro.execution.concurrent import ConcurrentNumericExecutor
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor

__all__ = [
    "ConcurrentNumericExecutor",
    "DeviceBuffer",
    "DeviceView",
    "Executor",
    "NumericExecutor",
    "RunStats",
    "SimExecutor",
    "as_view",
]
