"""Trace export: CSV / JSON / Chrome-trace formats.

ASCII Gantt charts are built in; for real plotting or the Chrome/Perfetto
timeline viewer (`chrome://tracing`), export the raw segments:

    from repro.sim.export import to_chrome_trace
    path = to_chrome_trace(result.trace, "qr.json")   # open in Perfetto
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Any

from repro.sim.ops import EngineKind
from repro.sim.trace import Trace

#: Stable engine ordering for exports.
ENGINE_ORDER = (EngineKind.H2D, EngineKind.COMPUTE, EngineKind.D2H)


def trace_rows(trace: Trace) -> list[dict[str, Any]]:
    """One dict per op, schedule-ordered — the common export payload."""
    rows = []
    for op in sorted(trace.ops, key=lambda o: (o.start, o.op_id)):
        rows.append(
            {
                "name": op.name,
                "engine": op.engine.value,
                "kind": op.kind.value,
                "stream": op.stream or "",
                "start_s": op.start,
                "end_s": op.end,
                "duration_s": op.end - op.start,
                "bytes": op.nbytes,
                "flops": op.flops,
                "tag": op.tags.get("tag", ""),
            }
        )
    return rows


def to_csv(trace: Trace, path: str | Path) -> Path:
    """Write the trace as CSV; returns the path."""
    path = Path(path)
    rows = trace_rows(trace)
    fields = [
        "name", "engine", "kind", "stream", "start_s", "end_s",
        "duration_s", "bytes", "flops", "tag",
    ]
    with path.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
    return path


def to_json(trace: Trace, path: str | Path) -> Path:
    """Write the trace (ops + summary) as JSON; returns the path."""
    path = Path(path)
    payload = {
        "makespan_s": trace.makespan,
        "h2d_bytes": trace.h2d_bytes,
        "d2h_bytes": trace.d2h_bytes,
        "total_flops": trace.total_flops,
        "overlap_ratio": trace.overlap_ratio(),
        "busy_s": {e.value: trace.busy_time(e) for e in ENGINE_ORDER},
        "ops": trace_rows(trace),
    }
    path.write_text(json.dumps(payload, indent=1))
    return path


def to_chrome_trace(trace: Trace, path: str | Path) -> Path:
    """Write Chrome-trace/Perfetto JSON (one row per engine); returns the
    path. Open at https://ui.perfetto.dev or chrome://tracing."""
    path = Path(path)
    events = []
    tids = {engine: i for i, engine in enumerate(ENGINE_ORDER)}
    for engine, tid in tids.items():
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": engine.value},
            }
        )
    for op in trace.ops:
        events.append(
            {
                "name": op.name,
                "cat": op.kind.value,
                "ph": "X",
                "pid": 0,
                "tid": tids[op.engine],
                "ts": op.start * 1e6,      # microseconds
                "dur": (op.end - op.start) * 1e6,
                "args": {
                    "bytes": op.nbytes,
                    "flops": op.flops,
                    "stream": op.stream or "",
                },
            }
        )
    path.write_text(json.dumps({"traceEvents": events}, indent=1))
    return path
