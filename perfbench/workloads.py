"""The benchmark's three workloads.

Every input comes from the ``--seed`` argument through numpy's own
generator, never from the program's ``repro.bench`` generators, so a
change to the program cannot change the load it is measured on. The
program is driven only through its public entry points: ``ooc_qr``,
``build_qr_graph``, ``SimGraphBackend.run`` and
``FactorService.submit`` / ``JobHandle.result``.

qr-numeric
    Closed loop, one caller: repeated out-of-core QR of one seeded
    8192x1024 Gaussian fp32 matrix on the paper's fp16-in/fp32-accumulate
    TensorCore precision, b=256, device capped at 32 MiB (the matrix is
    4x the cap). Kernels dominate and graph bookkeeping is small: the
    case a graph or scheduler change must leave alone.
paper-sim
    Closed loop: the four data-free simulated §5.2 runs at 131072^2
    (recursive and blocking; 32 GB with b=16384, 16 GB with b=8192). No
    numeric work and thousands of tasks: the case where graph
    construction shows and kernel changes must not.
serve-mix
    Open loop: Poisson arrivals at 10 jobs/s, well below the service's
    capacity, of a round-robin qr/gemm/lu/cholesky mix near size 256
    (b=128) on a 2-worker service without a result cache. Small jobs,
    where submit-time plan verification and BLAS contention dominate.

Each operation counts once in ``attempted``; one that raises, is
refused, or returns a wrong output counts in ``failed``.
"""

from __future__ import annotations

import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from repro.config import PAPER_SYSTEM, PAPER_SYSTEM_16GB
from repro.models import movement
from repro.obs import SpanRecorder
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.runtime import SimGraphBackend, build_qr_graph
from repro.serve import FactorService, JobSpec, run_job

from env import peak_rss_mib
from stats import self_times

# -- qr-numeric -------------------------------------------------------------------

QR_SHAPE = (8192, 1024)
QR_BLOCK = 256
QR_CAP = 32 << 20
#: Accuracy bounds, fixed from the fp16 unit roundoff the TensorCore
#: inputs are rounded to: Frobenius ||Q^T Q - I|| <= 100 u and
#: ||A - QR||_F / ||A||_F <= 10 u.
U_FP16 = 2.0 ** -11
ORTH_BOUND = 100 * U_FP16
FACT_BOUND = 10 * U_FP16
QR_RUNTIMES = ("legacy", "dag")

# -- paper-sim --------------------------------------------------------------------

SIM_N = 131072
#: (name, method, system, QR blocksize) of the four §5.2 runs.
SIM_RUNS = (
    ("rec32", "recursive", PAPER_SYSTEM, 16384),
    ("blk32", "blocking", PAPER_SYSTEM, 16384),
    ("rec16", "recursive", PAPER_SYSTEM_16GB, 8192),
    ("blk16", "blocking", PAPER_SYSTEM_16GB, 8192),
)
#: Default-runtime rounds after each graph run. A graph rotation takes
#: ~25x longer than a default round, so one round per run still gives
#: a dozen default samples while the graph path gets most of the run:
#: three or more rotations in 30 s, whose median is the graph sample.
SIM_DEFAULT_ROUNDS_PER_RUN = 1
#: Simulated H2D bytes must lie within 25% of the §3.2 count, which
#: assumes no tile reuse (the engines reuse resident tiles).
SIM_H2D_REL = 0.25

# -- serve-mix --------------------------------------------------------------------

SERVE_RATE = 10.0
#: Goodput counts jobs whose due-to-result latency is within this limit.
SERVE_LIMIT_S = 0.5
SERVE_KINDS = ("qr", "gemm", "lu", "cholesky")
SERVE_SIZES = (240, 256, 272)
SERVE_BLOCK = 128
SERVE_WORKERS = 2
#: Admitted jobs may queue without bound: a backlog shows as latency,
#: never as refused jobs.
SERVE_QUEUE = 100_000
#: Threads that wait on job handles, so each completion is stamped when
#: it happens rather than when a single collector gets to it.
SERVE_WAITERS = 32
SERVE_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    #: check name -> [operations that passed it, operations checked]
    checks: dict[str, list[int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    #: seconds per operation on the default path (correct ones only)
    default_s: list[float] = field(default_factory=list)
    #: seconds per operation on the task-graph path
    graph_s: list[float] = field(default_factory=list)
    #: report the mean of ``graph_s`` rather than its median
    graph_mean: bool = False
    goodput_per_s: float = 0.0
    peak_rss_mib: float = 0.0
    #: named figures that are not metrics (accuracy, lateness, ...)
    detail: dict[str, float] = field(default_factory=dict)
    #: per-layer metrics (traced runs only)
    layers: dict[str, float] = field(default_factory=dict)

    def check(self, name: str, ok: bool) -> bool:
        tally = self.checks.setdefault(name, [0, 0])
        tally[0] += bool(ok)
        tally[1] += 1
        return ok

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)


def _raised(out: Outcome, what: str, exc: Exception) -> None:
    out.op(False, f"{what} raised {type(exc).__name__}: {exc}")


def _clock(rec: SpanRecorder | None):
    """Bench timestamps on the recorder's timebase when tracing, so they
    line up with the program's spans."""
    return rec.now if rec is not None else time.perf_counter


def _attribute(spans, classify) -> tuple[dict[str, float], float]:
    """Sum span self times into layers; returns (layers, traced total).

    The total is the summed duration of the benchmark's root spans (one
    per traced operation). ``classify(span, self_s, children)`` returns
    ``{layer: seconds}``; a span it does not place, and every benchmark
    span without a ``layer`` attribute, goes to ``unattributed_s``.
    """
    self_s, children = self_times(spans)
    layers: dict[str, float] = defaultdict(float)
    total = 0.0
    for s in spans:
        if s.is_event:
            continue
        if s.cat == "bench" and s.parent_id is None:
            total += s.duration_s
        placed = classify(s, self_s[s.span_id], children.get(s.span_id, ()))
        if placed is None:
            layer = s.attrs.get("layer", "unattributed_s")
            placed = {layer: self_s[s.span_id]}
        for layer, sec in placed.items():
            layers[layer] += sec
    return dict(layers), total


def _per_op(out: Outcome, layers: dict[str, float], total: float, n_ops: int) -> None:
    """Store layer self times per operation, the traced time per
    operation, and how far the two are from adding up."""
    out.layers = {k: v / n_ops for k, v in layers.items()}
    out.layers.setdefault("unattributed_s", 0.0)
    out.layers["trace.e2e_s"] = total / n_ops
    out.detail["trace.reconcile_gap_s"] = (total - sum(layers.values())) / n_ops


# -- qr-numeric -------------------------------------------------------------------


def _qr(a, runtime: str, obs=None):
    return ooc_qr(
        a, method="recursive", blocksize=QR_BLOCK, device_memory=QR_CAP,
        runtime=runtime, obs=obs,
    )


#: op-span category -> layer
_QR_OP_LAYERS = {
    "gemm": "tc.gemm_s",
    "panel": "qr.panel_s",
    "copy_h2d": "execution.h2d_s",
    "copy_d2h": "execution.d2h_s",
    "copy_d2d": "execution.d2d_s",
}


def _qr_classify(span, self_s, children):
    if span.cat in _QR_OP_LAYERS:
        return {_QR_OP_LAYERS[span.cat]: self_s}
    if span.cat == "run" and span.attrs.get("runtime") == "dag":
        # The DAG path records the whole graph before its first task
        # runs: root start -> first task is graph build, the rest of the
        # root's self time is scheduling and dispatch.
        first = min((c.start_s for c in children), default=span.end_s)
        build = first - span.start_s
        return {"runtime.build_s": build, "runtime.dispatch_s": self_s - build}
    return None


def qr_numeric(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    m, n = QR_SHAPE
    a = np.random.default_rng(seed).standard_normal(QR_SHAPE, dtype=np.float32)
    # warm-up calls, untimed; the first result is the reference every
    # later call of either runtime must equal bit for bit
    ref = _qr(a, "legacy")
    _qr(a, "dag")
    rec = SpanRecorder() if traced else None
    samples = {rt: [] for rt in QR_RUNTIMES}
    traced_s: list[float] = []

    def call(runtime: str, obs) -> float | None:
        t0 = time.perf_counter()
        try:
            if obs is None:
                res = _qr(a, runtime)
            else:
                with obs.span(f"bench:qr[{runtime}]", cat="bench", lane="bench"):
                    res = _qr(a, runtime, obs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            _raised(out, f"ooc_qr[{runtime}]", exc)
            return None
        dt = time.perf_counter() - t0
        same = np.array_equal(res.q, ref.q) and np.array_equal(res.r, ref.r)
        ok = out.check("Q,R bitwise equal across calls and runtimes", same)
        out.op(ok, f"ooc_qr[{runtime}] output differs from the reference")
        return dt if ok else None

    deadline = time.perf_counter() + seconds
    i = 0
    while i == 0 or time.perf_counter() < deadline:
        for runtime in QR_RUNTIMES if i % 2 == 0 else QR_RUNTIMES[::-1]:
            dt = call(runtime, None)
            if dt is not None:
                samples[runtime].append(dt)
            if rec is not None:
                dt = call(runtime, rec)
                if dt is not None:
                    traced_s.append(dt)
        i += 1
    out.peak_rss_mib = peak_rss_mib()
    out.default_s, out.graph_s = samples["legacy"], samples["dag"]
    out.goodput_per_s = len(out.default_s) / sum(out.default_s) if out.default_s else 0.0

    q = ref.q.astype(np.float64)
    r = ref.r.astype(np.float64)
    orth = float(np.linalg.norm(q.T @ q - np.eye(n)))
    fact = float(np.linalg.norm(a - q @ r) / np.linalg.norm(a))
    out.detail.update(orth_err=orth, fact_err=fact)
    accurate = out.check(f"orth_err <= {ORTH_BOUND:.3g}", orth <= ORTH_BOUND)
    accurate &= out.check(f"fact_err <= {FACT_BOUND:.3g}", fact <= FACT_BOUND)
    if not accurate:
        # every call returned the reference bits, so every call is wrong
        out.failed = out.attempted
        out.notes.append(f"reference Q,R inaccurate: orth {orth:.3g}, fact {fact:.3g}")

    if rec is not None:
        spans = rec.spans()
        layers, total = _attribute(spans, _qr_classify)
        n_ops = sum(1 for s in spans if s.cat == "bench" and s.parent_id is None)
        counts: dict[str, float] = defaultdict(float)
        for s in spans:
            if s.cat == "gemm":
                counts["tc.gemm_count"] += 1
                counts["tc.gemm_flops"] += s.attrs.get("flops", 0)
            elif s.cat == "panel":
                counts["qr.panel_count"] += 1
            elif s.cat == "copy_h2d":
                counts["execution.h2d_bytes"] += s.attrs.get("nbytes", 0)
            elif s.cat == "copy_d2h":
                counts["execution.d2h_bytes"] += s.attrs.get("nbytes", 0)
        _per_op(out, layers, total, n_ops)
        out.layers.update({k: v / n_ops for k, v in counts.items()})
        graph = build_qr_graph(
            PAPER_SYSTEM.with_gpu(PAPER_SYSTEM.gpu.with_memory(QR_CAP, suffix="capped")),
            m, n, QR_BLOCK, method="recursive",
        )
        out.layers["runtime.tasks"] = len(graph.tasks)
        out.layers["runtime.edges"] = sum(len(t.deps) for t in graph.tasks)
        model = movement.recursive_h2d_exact(m, n, QR_BLOCK) * a.itemsize
        out.layers["execution.h2d_model_ratio"] = out.layers["execution.h2d_bytes"] / model
        untraced = samples["legacy"] + samples["dag"]
        out.layers["trace.overhead_frac"] = (
            (sum(traced_s) / len(traced_s)) / (sum(untraced) / len(untraced))
        )
    return out


# -- paper-sim --------------------------------------------------------------------


def _sim_classify(span, self_s, children):
    if span.cat == "run":
        # ooc_qr's root span in sim mode: driver plus event simulation
        return {"sim.legacy_s": self_s}
    return None


def _sim_default(run, obs):
    """One §5.2 run on the default runtime: (makespan, H2D bytes, None)."""
    name, method, cfg, b = run
    if obs is None:
        res = ooc_qr((SIM_N, SIM_N), method=method, mode="sim", config=cfg, blocksize=b)
    else:
        with obs.span(f"bench:sim[legacy] {name}", cat="bench", lane="bench",
                      attrs={"layer": "sim.legacy_s"}):
            res = ooc_qr((SIM_N, SIM_N), method=method, mode="sim", config=cfg,
                         blocksize=b, obs=obs)
    return res.makespan, res.movement.h2d_bytes, None


def _sim_graph(run, obs):
    """One §5.2 run as a task graph: (makespan, H2D bytes, graph)."""
    name, method, cfg, b = run
    if obs is None:
        graph = build_qr_graph(cfg, SIM_N, SIM_N, b, method=method)
        trace = SimGraphBackend(cfg).run(graph)
    else:
        with obs.span(f"bench:sim[dag] {name}", cat="bench", lane="bench"):
            with obs.span("build_qr_graph", cat="bench", lane="bench",
                          attrs={"layer": "runtime.build_s"}):
                graph = build_qr_graph(cfg, SIM_N, SIM_N, b, method=method)
            with obs.span("SimGraphBackend.run", cat="bench", lane="bench",
                          attrs={"layer": "sim.run_s"}):
                trace = SimGraphBackend(cfg).run(graph)
    return trace.makespan, graph.stats.h2d_bytes, graph


class _SimRound:
    """The four runs on one runtime: times, results and their checks."""

    def __init__(self, out: Outcome, runtime: str):
        self.out = out
        self.runtime = runtime
        self.seconds = 0.0
        self.results: dict[str, tuple[float, int]] = {}
        self.tasks = self.edges = 0

    def run(self, run, fn, obs) -> None:
        t0 = time.perf_counter()
        try:
            makespan, h2d, graph = fn(run, obs)
        except Exception as exc:  # noqa: BLE001 - a failed operation is a result
            _raised(self.out, f"sim[{self.runtime}] {run[0]}", exc)
            return
        self.seconds += time.perf_counter() - t0
        self.results[run[0]] = (makespan, h2d)
        if graph is not None:
            # counts only: holding the graphs would slow every later
            # garbage collection in the run
            self.tasks += len(graph.tasks)
            self.edges += sum(len(t.deps) for t in graph.tasks)

    def judge(self) -> float | None:
        """Record one operation per run; returns the round's seconds when
        all four runs completed and were correct."""
        out = self.out
        all_ok = len(self.results) == len(SIM_RUNS)
        for name, method, cfg, b in SIM_RUNS:
            if name not in self.results:
                continue
            makespan, h2d = self.results[name]
            exact = (movement.recursive_h2d_exact if method == "recursive"
                     else movement.blocking_h2d_exact)(SIM_N, SIM_N, b) * cfg.element_bytes
            ok = out.check(
                f"H2D bytes within {SIM_H2D_REL:.0%} of the §3.2 count",
                abs(h2d / exact - 1.0) <= SIM_H2D_REL,
            )
            peer = "blk" + name[3:]
            if method == "recursive" and peer in self.results:
                ok &= out.check(
                    "recursive makespan < blocking at the same memory size",
                    makespan < self.results[peer][0],
                )
            out.op(ok, f"sim[{self.runtime}] {name}: makespan {makespan:.4g} s, h2d {h2d} B")
            all_ok &= ok
        return self.seconds if all_ok else None


def paper_sim(seed: int, seconds: float, traced: bool) -> Outcome:
    """Graph runs are interleaved one at a time with default-runtime
    rounds, so slow spells of the host hit both paths alike; a graph
    sample is one rotation through the four runs."""
    out = Outcome(graph_mean=True)
    rng = np.random.default_rng(seed)
    rec = SpanRecorder() if traced else None
    traced_s = untraced_s = 0.0
    n_traced = 0
    last_default = last_graph = None

    def default_round(obs) -> _SimRound:
        rnd = _SimRound(out, "legacy")
        for idx in rng.permutation(len(SIM_RUNS)):
            rnd.run(SIM_RUNS[idx], _sim_default, obs)
        return rnd

    def keep(rnd: _SimRound, into: list[float]) -> None:
        dt = rnd.judge()
        if dt is not None:
            into.append(dt)

    # warm-up, untimed: one default round and one small graph
    default_round(None)
    SimGraphBackend(PAPER_SYSTEM).run(build_qr_graph(PAPER_SYSTEM, 8192, 8192, 2048))
    t0 = time.perf_counter()
    rotation_s = 0.0
    # start another rotation only while at least half of it fits
    while last_graph is None or time.perf_counter() - t0 + rotation_s / 2 < seconds:
        started = time.perf_counter()
        graph_rnd = _SimRound(out, "dag")
        if rec is None:
            for idx in rng.permutation(len(SIM_RUNS)):
                graph_rnd.run(SIM_RUNS[idx], _sim_graph, None)
                for _ in range(SIM_DEFAULT_ROUNDS_PER_RUN):
                    last_default = default_round(None)
                    keep(last_default, out.default_s)
        else:
            # each run untraced then traced, on both runtimes
            traced_rnds = [_SimRound(out, "legacy"), _SimRound(out, "dag")]
            plain_rnds = [_SimRound(out, "legacy"), graph_rnd]
            for idx in rng.permutation(len(SIM_RUNS)):
                for fn, plain, traced_rnd in zip((_sim_default, _sim_graph), plain_rnds, traced_rnds):
                    plain.run(SIM_RUNS[idx], fn, None)
                    traced_rnd.run(SIM_RUNS[idx], fn, rec)
            last_default = plain_rnds[0]
            keep(plain_rnds[0], out.default_s)
            for rnd in traced_rnds:
                rnd.judge()
            untraced_s += plain_rnds[0].seconds + graph_rnd.seconds
            traced_s += sum(r.seconds for r in traced_rnds)
            n_traced += len(traced_rnds)
        keep(graph_rnd, out.graph_s)
        last_graph = graph_rnd
        rotation_s = time.perf_counter() - started
    out.peak_rss_mib = peak_rss_mib()
    out.goodput_per_s = len(out.default_s) / sum(out.default_s) if out.default_s else 0.0

    makespans = {name: r[0] for name, r in last_default.results.items()}
    if len(makespans) == len(SIM_RUNS):
        out.detail["speedup_32gb"] = makespans["blk32"] / makespans["rec32"]
        out.detail["speedup_16gb"] = makespans["blk16"] / makespans["rec16"]
    if rec is not None:
        layers, total = _attribute(rec.spans(), _sim_classify)
        _per_op(out, layers, total, n_traced)
        out.layers["runtime.tasks"] = last_graph.tasks
        out.layers["runtime.edges"] = last_graph.edges
        for name, makespan in makespans.items():
            out.layers[f"sim.makespan_s.{name}"] = makespan
        for key in ("speedup_32gb", "speedup_16gb"):
            if key in out.detail:
                out.layers[f"sim.{key}"] = out.detail[key]
        out.layers["trace.overhead_frac"] = traced_s / untraced_s
    return out


# -- serve-mix --------------------------------------------------------------------


def _serve_jobs(rng, count: int, tag: str) -> list[JobSpec]:
    """Round-robin job mix, sizes near 256."""
    opts = QrOptions(blocksize=SERVE_BLOCK)
    specs = []
    for i in range(count):
        kind = SERVE_KINDS[i % len(SERVE_KINDS)]
        # every kind cycles through every size, so the mix is the same
        # for every seed; only values and arrival times change
        n = SERVE_SIZES[(i // len(SERVE_KINDS)) % len(SERVE_SIZES)]
        g = rng.standard_normal((n, n), dtype=np.float32)
        if kind == "qr":
            operands = (g,)
        elif kind == "gemm":
            operands = (g, rng.standard_normal((n, n // 2), dtype=np.float32))
        elif kind == "lu":
            # diagonally dominant: stable without pivoting
            operands = (g + np.float32(n) * np.eye(n, dtype=np.float32),)
        else:
            spd = (g @ g.T) / np.float32(n) + np.eye(n, dtype=np.float32)
            operands = ((spd + spd.T) / np.float32(2),)
        specs.append(JobSpec(kind, operands, options=opts, name=f"{tag}{kind}-{i}"))
    return specs


def _arrivals(rng, count: int, seconds: float) -> np.ndarray:
    """A Poisson process conditioned on ``count`` arrivals in
    ``[0, seconds)``: sorted uniform offsets. Fixing the count keeps the
    offered load identical from seed to seed."""
    return np.sort(rng.uniform(0.0, seconds, size=count))


@dataclass
class _Job:
    spec: JobSpec
    due: float
    sub0: float = 0.0
    sub1: float = 0.0
    done: float = 0.0
    result: object = None
    error: Exception | None = None


def _serve_schedule(out: Outcome, rng, seconds: float, rec, tag: str):
    """Offer one open-loop schedule to a fresh service; returns the jobs,
    the service's metrics snapshot and the process CPU seconds used."""
    count = max(len(SERVE_KINDS), round(SERVE_RATE * seconds))
    specs = _serve_jobs(rng, count, tag)
    offsets = _arrivals(rng, count, seconds)
    warm = _serve_jobs(rng, len(SERVE_KINDS), f"{tag}warm-")
    now = _clock(rec)
    svc = FactorService(
        n_workers=SERVE_WORKERS, queue_limit=SERVE_QUEUE, cache=None, obs=rec
    )
    waiters = ThreadPoolExecutor(max_workers=SERVE_WAITERS)

    def stamp_done(handle) -> float:
        handle.wait(SERVE_TIMEOUT_S)
        return now()

    try:
        for spec in warm:  # first call of each kind, untimed
            svc.submit(spec).result(SERVE_TIMEOUT_S)
        jobs, futures = [], []
        cpu0 = time.process_time()
        t0 = now() + 0.05
        for spec, offset in zip(specs, offsets):
            job = _Job(spec, t0 + float(offset))
            delay = job.due - now()
            if delay > 0:
                time.sleep(delay)
            job.sub0 = now()
            try:
                handle = svc.submit(spec)
            except Exception as exc:  # noqa: BLE001 - a refused job is a result
                job.error = exc
                handle = None
            job.sub1 = now()
            jobs.append(job)
            futures.append((job, handle, waiters.submit(stamp_done, handle) if handle else None))
        for job, handle, fut in futures:
            if handle is None:
                continue
            job.done = fut.result()
            try:
                job.result = handle.result(timeout=0)
            except Exception as exc:  # noqa: BLE001 - a failed job is a result
                job.error = exc
        cpu = time.process_time() - cpu0
        rss = peak_rss_mib()
        # outputs are checked against a standalone run of the same spec
        # under the exact config the service granted it
        for job in jobs:
            if job.error is not None:
                out.op(False, f"{job.spec.name}: {type(job.error).__name__}: {job.error}")
                continue
            expect = run_job(job.spec, svc.job_config(job.spec), "serial")
            got = job.result.arrays
            same = got.keys() == expect.arrays.keys() and all(
                np.array_equal(got[k], expect.arrays[k]) for k in got
            )
            ok = out.check("job output bitwise equal to a standalone run_job", same)
            out.op(ok, f"{job.spec.name}: output differs from standalone run_job")
            if not ok:
                job.error = ValueError("wrong output")
        snap = svc.snapshot_metrics()
    finally:
        svc.close()
        waiters.shutdown(wait=True)
    return jobs, snap, cpu, rss


def _serve_layers(out: Outcome, jobs: list[_Job], spans) -> None:
    """Partition each traced job's due-to-result latency into layers:
    generator lateness, submit (with plan verification inside it), queue
    wait, execution attempts, and the unattributed hand-off after the
    last attempt."""
    by_label = {s.name[4:]: s for s in spans if s.cat == "job" and s.name.startswith("job:")}
    _, children = self_times(spans)
    layers: dict[str, float] = defaultdict(float)
    total = 0.0
    done = [j for j in jobs if j.error is None]
    for job in done:
        kind = job.spec.kind
        root = by_label.get(job.spec.name)
        kids = children.get(root.span_id, ()) if root is not None else ()
        verify = sum(c.duration_s for c in kids if c.name == "verify")
        attempts = [c for c in kids if c.name.startswith("attempt")]
        run = sum(c.duration_s for c in attempts)
        first = min((c.start_s for c in attempts), default=job.sub1)
        latency = job.done - job.due
        late = job.sub0 - job.due
        submit = job.sub1 - job.sub0
        wait = first - job.sub1
        total += latency
        layers["loadgen.late_s"] += late
        layers[f"analysis.verify_s.{kind}"] += verify
        layers["serve.submit_s"] += submit - verify
        layers["serve.queue_wait_s"] += wait
        layers[f"serve.attempt_s.{kind}"] += run
        layers["unattributed_s"] += latency - late - submit - wait - run
    _per_op(out, layers, total, max(len(done), 1))


def serve_mix(seed: int, seconds: float, traced: bool) -> Outcome:
    out = Outcome()
    rng = np.random.default_rng(seed)
    if traced:
        return _serve_traced(out, rng, seconds)
    jobs, _, cpu, rss = _serve_schedule(out, rng, seconds, None, "")
    out.peak_rss_mib = rss
    ok = [j for j in jobs if j.error is None]
    out.default_s = [j.done - j.due for j in ok]
    out.graph_s = [j.sub1 - j.sub0 for j in jobs]
    if ok:
        # over the measured window: first due send time to last result
        window = max(j.done for j in ok) - min(j.due for j in jobs)
        within = sum(1 for j in ok if j.done - j.due <= SERVE_LIMIT_S)
        out.goodput_per_s = within / window
    late = [j.sub0 - j.due for j in jobs]
    out.detail.update(
        offered_jobs=len(jobs),
        late_p50_s=float(np.median(late)),
        late_max_s=float(np.max(late)),
        cpu_per_job_s=cpu / len(jobs),
    )
    return out


def _serve_traced(out: Outcome, rng, seconds: float) -> Outcome:
    """Four schedules of a quarter of the time each, untraced, traced,
    traced, untraced, so drift over the run cancels out of the tracing
    overhead (mean latency traced over untraced); the layers come from
    the two traced ones."""
    rec = SpanRecorder()
    traced_jobs, plain_jobs, retries, rejected, cpu = [], [], 0, 0, 0.0
    for quarter, obs in enumerate((None, rec, rec, None)):
        jobs, snap, used, _ = _serve_schedule(out, rng, seconds / 4, obs, f"q{quarter}-")
        if obs is None:
            plain_jobs += jobs
            continue
        traced_jobs += jobs
        retries += snap["job_retries"]["value"]
        rejected += snap["jobs_rejected"]["value"]
        cpu += used
    _serve_layers(out, traced_jobs, rec.spans())
    n = len(traced_jobs)
    out.layers["serve.cpu_per_job_s"] = cpu / n
    out.layers["serve.retries"] = retries / n
    out.layers["serve.rejected"] = rejected / n

    def mean_latency(jobs):
        return float(np.mean([j.done - j.due for j in jobs if j.error is None]))

    out.layers["trace.overhead_frac"] = mean_latency(traced_jobs) / mean_latency(plain_jobs)
    return out


WORKLOADS = {
    "qr-numeric": qr_numeric,
    "paper-sim": paper_sim,
    "serve-mix": serve_mix,
}


def warm_up_all() -> None:
    """Call every job kind and runtime once at small size (the set-up
    probe's work after import)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((512, 128), dtype=np.float32)
    for runtime in QR_RUNTIMES:
        ooc_qr(a, blocksize=32, device_memory=1 << 20, runtime=runtime)
    ooc_qr((8192, 8192), mode="sim", blocksize=1024, device_memory=128 << 20)
    SimGraphBackend(PAPER_SYSTEM).run(build_qr_graph(PAPER_SYSTEM, 8192, 8192, 2048))
    with FactorService(n_workers=1, cache=None) as svc:
        for spec in _serve_jobs(rng, len(SERVE_KINDS), "setup-"):
            svc.submit(spec).result(SERVE_TIMEOUT_S)
