"""The repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload qr-numeric --seed 1 --seconds 33 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --out bench-results/parent.jsonl
    python3 perfbench/compare.py bench-results/parent.jsonl bench-results/change.jsonl

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` is the separate traced run that reports the
per-layer metrics. Either prints a table of every metric (name, value,
unit, sample count and what it means on the workload), the output
checks and the environment fingerprint, then, as the last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--out FILE`` also appends the full record (samples, checks,
fingerprint) to FILE as one JSON line, for ``compare.py``.

End-to-end metrics, with what each means on each workload (in
parentheses, the workload-specific name of the figure):

============== ====================== ======================= ==========================
metric         qr-numeric             paper-sim               serve-mix
============== ====================== ======================= ==========================
mean_s         one ``ooc_qr`` call,   the four simulations,   one job, due send time to
               default runtime (qr_s) default runtime (sim_s) result
graph_s        one ``ooc_qr`` call,   the four                ``submit()``, which captures
               ``runtime="dag"``      ``build_qr_graph`` +    and verifies the job's
               (qr_dag_s), median     ``SimGraphBackend.run`` program, median
                                      (sim_dag_s), mean
goodput_per_s  correct default-path operations per second of  jobs correct within 0.5 s
               their own run time                             per second from the first
                                                              due time to the last result
                                                              (serve_goodput_jobs_s)
setup_s        median wall time of 5 fresh processes that import the program and call
               every job kind and runtime once
peak_rss_mib   peak resident memory of the run, read before the output checks
============== ====================== ======================= ==========================

The median and 90th percentile of the ``mean_s`` samples (serve_p50_s
and serve_p90_s on serve-mix) are printed and recorded with their sample
count, but not gated: serve-mix latencies spread flat from a few to a
hundred milliseconds, where the median of a run's jobs is the less
steady of the two (a bootstrap of one run's 250 jobs gives the median a
12% relative error and the mean 6%). ``graph_s`` is a median on
serve-mix because submit times are peaked with a long tail, where the
median is the steadier of the two, and on qr-numeric, where a run makes
over a dozen calls. On paper-sim it is a mean: a run holds
only three or four graph samples, each dominated by one ~6 s graph build,
and the host's speed drifts over tens of seconds; the mean weighs every
build the run made, where the median of so few samples would rest on
one of them. Accuracy (orth_err, fact_err) and fail_frac are
printed too; they gate ``correct`` through fixed bounds instead.

Per-layer metrics are self times (span time minus the time of the spans
it called) per operation of the traced run, plus counts, model outputs
and host reference values; a layer a workload does not exercise reads 0.
The self times plus ``unattributed_s`` add up to ``trace.e2e_s``, the
traced time per operation.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

import numpy as np

from checkout import ROOT, load_program
from stats import supported_percentile

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: What each generic end-to-end metric measures on each workload.
MEANING = {
    "qr-numeric": {
        "mean_s": "qr_s: one ooc_qr call, default runtime",
        "graph_s": "qr_dag_s: one ooc_qr call, runtime='dag'",
        "goodput_per_s": "correct default-runtime calls per second",
    },
    "paper-sim": {
        "mean_s": "sim_s: the four §5.2 runs, default runtime",
        "graph_s": "sim_dag_s: the four runs, build_qr_graph + SimGraphBackend.run",
        "goodput_per_s": "correct default-runtime rounds per second",
    },
    "serve-mix": {
        "mean_s": "job latency, due send time to result",
        "graph_s": "submit(): plan capture + verification + admission",
        "goodput_per_s": "serve_goodput_jobs_s: jobs correct within 0.5 s, per s",
    },
}


def end_to_end(out, setup: list[float]) -> tuple[dict[str, float], dict[str, int]]:
    """The end-to-end metric values and their sample counts."""
    if not out.default_s or not out.graph_s:
        sys.exit("perfbench: no correct operation completed; nothing to report")
    values = {
        "mean_s": float(np.mean(out.default_s)),
        "graph_s": float((np.mean if out.graph_mean else np.median)(out.graph_s)),
        "goodput_per_s": out.goodput_per_s,
        "setup_s": float(np.median(setup)),
        "peak_rss_mib": out.peak_rss_mib,
    }
    counts = {
        "mean_s": len(out.default_s),
        "graph_s": len(out.graph_s), "goodput_per_s": len(out.default_s),
        "setup_s": len(setup), "peak_rss_mib": 1,
    }
    return values, counts


def per_layer(out, workload: str) -> dict[str, float]:
    """Every declared per-layer metric; host reference values are
    measured here, in the same run."""
    import env
    from workloads import QR_SHAPE

    values = dict(out.layers)
    values.update(env.host_probes())
    a = np.random.default_rng(0).standard_normal(QR_SHAPE, dtype=np.float32)
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        np.linalg.qr(a)
        best = min(best, time.perf_counter() - t0)
    values["baseline.numpy_qr_s"] = best
    gemm_s = values.get("tc.gemm_s", 0.0)
    values["tc.gemm_peak_frac"] = (
        values.get("tc.gemm_flops", 0.0) / gemm_s / (values["host.matmul_peak_gflops"] * 1e9)
        if gemm_s > 0 else 0.0
    )
    copy_s = values.get("execution.h2d_s", 0.0) + values.get("execution.d2h_s", 0.0)
    copied = values.get("execution.h2d_bytes", 0.0) + values.get("execution.d2h_bytes", 0.0)
    values["execution.copy_peak_frac"] = (
        copied / copy_s / (values["host.copy_peak_gbps"] * 1e9) if copy_s > 0 else 0.0
    )
    declared = [m["name"] for m in SPEC["per_layer"]]
    undeclared = sorted(set(values) - set(declared))
    if undeclared:
        sys.exit(f"perfbench: {workload} measured undeclared layers {undeclared}")
    return {name: float(values.get(name, 0.0)) for name in declared}


def _table(rows: list[tuple[str, ...]]) -> str:
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    return "\n".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in rows
    )


def report(args, out, metrics, counts, fingerprint) -> None:
    meaning = MEANING[args.workload]
    print(f"== perfbench {args.workload}  seed {args.seed}  "
          f"{args.seconds:g} s  trace {args.trace}")
    rows = [("metric", "value", "unit", "n", "meaning")]
    for name, value in metrics.items():
        rows.append((name, f"{value:.6g}", UNITS[name], str(counts.get(name, "")),
                     meaning.get(name, "")))
    print(_table(rows))
    if "p90_s" in out.detail:
        n = counts["mean_s"]
        best = supported_percentile(n)
        print(f"percentiles of the mean_s samples, not gated: p50 "
              f"{out.detail['p50_s']:.6g} s, p90 {out.detail['p90_s']:.6g} s; of {n} "
              f"samples {n * 0.1:.1f} lie beyond the p90, and the highest percentile "
              f"with >= 10 beyond is {'p%d' % best if best else 'none'}")
    if args.trace:
        print("note: execution.*_bytes and tc.gemm_flops are computed from array "
              "shapes, not measured traffic; sim.* makespans are simulated V100 seconds")
    fail_frac = out.failed / out.attempted if out.attempted else 1.0
    print(f"operations: {out.attempted} attempted, {out.failed} failed "
          f"(fail_frac {fail_frac:.4g})")
    for name, (passed, total) in out.checks.items():
        print(f"check: {name}: {passed}/{total}")
    for note in out.notes:
        print(f"failure: {note}")
    for name, value in out.detail.items():
        if name not in ("p50_s", "p90_s"):
            print(f"detail: {name} = {value:.6g}")
    print("env: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))


def run_one(args) -> int:
    import env
    from workloads import WORKLOADS

    fingerprint = env.fingerprint()
    setup = env.measure_setup() if not args.trace else []
    out = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    if args.trace:
        metrics = per_layer(out, args.workload)
        counts: dict[str, int] = {}
    else:
        metrics, counts = end_to_end(out, setup)
        out.detail["p50_s"] = float(np.median(out.default_s))
        out.detail["p90_s"] = float(np.percentile(out.default_s, 90))
        out.detail["setup_samples_s_min"] = min(setup)
        out.detail["setup_samples_s_max"] = max(setup)
    report(args, out, metrics, counts, fingerprint)
    line = {
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
    }
    if args.out:
        record = {
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **line,
            "samples": counts, "checks": out.checks, "detail": out.detail,
            "env": fingerprint,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "a") as fh:
            fh.write(json.dumps(record) + "\n")
    print(json.dumps(line))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each gets its own memory
    high-water mark and its own set-up measurement."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.out:
            cmd += ["--out", os.path.abspath(args.out)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print("\n".join(lines))
            sys.exit(f"perfbench: {workload} exited with code {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            merged["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append the full record to this JSON-lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program()
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
