"""Tile-task DAG dataflow runtime: the one program representation.

Engines emit :class:`TaskGraph` objects — tasks carrying engine class
(h2d/compute/d2h), tile read/write sets, and a cost hint — via
:class:`GraphBuilder`. A graph keeps the issued stream/event order on its
ops and the derived dataflow on its tasks. :class:`DagScheduler`
executes it with dynamic dataflow scheduling (lookahead, work stealing)
on either the numeric backend or the discrete-event simulator, and
:func:`repro.analysis.verify_program` checks it statically. See
``docs/runtime.md`` for the task model, scheduler semantics, and the
per-engine migration status.
"""

from repro.runtime.backends import (
    NumericGraphBackend,
    RecordingBackend,
    SimGraphBackend,
    run_recorded,
    simulate_tasks,
)
from repro.runtime.builder import GraphBuilder
from repro.runtime.engines import (
    ENGINE_RUNTIME_STATUS,
    GRAPH_BUILDERS,
    build_factor_graph,
    build_gemm_graph,
    build_job_graph,
    build_qr_graph,
    drive_factor,
    drive_gemm,
    drive_qr,
    verify_engine_graph,
)
from repro.runtime.scheduler import DagScheduler, GraphBackend
from repro.runtime.task import (
    TaskGraph,
    TileTask,
    dataflow_ops,
    edges_consistent,
)

__all__ = [
    "ENGINE_RUNTIME_STATUS",
    "GRAPH_BUILDERS",
    "DagScheduler",
    "GraphBackend",
    "GraphBuilder",
    "NumericGraphBackend",
    "RecordingBackend",
    "SimGraphBackend",
    "TaskGraph",
    "TileTask",
    "build_factor_graph",
    "build_gemm_graph",
    "build_job_graph",
    "build_qr_graph",
    "dataflow_ops",
    "drive_factor",
    "drive_gemm",
    "drive_qr",
    "edges_consistent",
    "run_recorded",
    "simulate_tasks",
    "verify_engine_graph",
]
