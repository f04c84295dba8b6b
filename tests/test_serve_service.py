"""FactorService end-to-end tests (the ISSUE acceptance scenario).

The centerpiece drives 32+ mixed QR/GEMM/LU/Cholesky jobs through one
service under a tight device budget and asserts: every accepted job
completes with results bitwise-equal to direct ``ooc_qr``/``ooc_gemm``/
``ooc_lu``/``ooc_cholesky`` calls under the same per-job capped config,
the peak concurrently-admitted footprint never exceeds the budget, and
injected worker faults are retried with backoff and surface in metrics.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.config import SystemConfig
from repro.errors import AdmissionError, ValidationError
from repro.factor.api import ooc_cholesky, ooc_lu
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.hw.gemm import Precision
from repro.ooc.api import ooc_gemm
from repro.qr.api import ooc_qr
from repro.qr.options import QrOptions
from repro.serve import (
    FactorService,
    JobSpec,
    JobState,
    estimate_footprint_bytes,
    run_job,
)
from repro.util.rng import default_rng

from tests.conftest import make_tiny_spec


def make_config(mem_bytes: int = 1 << 20) -> SystemConfig:
    return SystemConfig(
        gpu=make_tiny_spec(mem_bytes=mem_bytes), precision=Precision.FP32
    )


OPTS = QrOptions(blocksize=16)


def mixed_workload(n_jobs: int, seed: int = 7) -> list[JobSpec]:
    """n_jobs numeric specs cycling over all four kinds, varied shapes."""
    rng = default_rng(seed)
    specs = []
    for i in range(n_jobs):
        kind = ("qr", "gemm", "lu", "cholesky")[i % 4]
        n = 32 + 8 * (i % 3)
        if kind == "qr":
            ops = (rng.standard_normal((n + 16, n)).astype(np.float32),)
        elif kind == "gemm":
            ops = (
                rng.standard_normal((n + 16, n)).astype(np.float32),
                rng.standard_normal((n + 16, n // 2)).astype(np.float32),
            )
        elif kind == "lu":
            ops = (diagonally_dominant(n, n, seed=seed + i),)
        else:
            ops = (spd_matrix(n, seed=seed + i),)
        specs.append(JobSpec(kind, ops, options=OPTS, priority=i % 3))
    return specs


def run_direct(spec: JobSpec, config: SystemConfig) -> dict[str, np.ndarray]:
    """The reference result: a direct API call under the same capped
    config the service grants the job."""
    if spec.kind == "qr":
        r = ooc_qr(spec.operands[0], method=spec.method, mode="numeric",
                   config=config, options=spec.options)
        return {"q": r.q, "r": r.r}
    if spec.kind == "gemm":
        r = ooc_gemm(spec.operands[0], spec.operands[1], trans_a=spec.trans_a,
                     mode="numeric", config=config,
                     blocksize=spec.options.blocksize,
                     pipelined=spec.options.pipelined)
        return {"c": r.c}
    run = ooc_lu if spec.kind == "lu" else ooc_cholesky
    r = run(spec.operands[0], method=spec.method, mode="numeric",
            config=config, options=spec.options)
    return {"packed": r.packed}


class TestAcceptance:
    def test_mixed_workload_bounded_budget(self):
        """The ISSUE acceptance scenario (minus faults, covered below)."""
        config = make_config(1 << 20)
        budget = config.usable_device_bytes // 2
        svc = FactorService(
            config, device_budget=budget, n_workers=3, queue_limit=64
        )
        try:
            specs = mixed_workload(32)
            handles = [svc.submit(s) for s in specs]
            for spec, h in zip(specs, handles):
                res = h.result(timeout=120)
                assert h.state is JobState.DONE
                assert h.footprint_bytes <= budget
                direct = run_direct(spec, svc.job_config(spec))
                assert sorted(res.arrays) == sorted(direct)
                for name, ref in direct.items():
                    assert np.array_equal(res.arrays[name], ref), (
                        f"{spec.label()}: {name} differs from direct call"
                    )
            # enforced, not advisory: peak admitted footprint <= budget
            assert 0 < svc.admission.peak_in_use <= budget
            snap = svc.snapshot_metrics()
            assert snap["admitted_bytes"]["max"] <= budget
            assert snap["jobs_completed"]["value"] == 32
            assert snap["jobs_failed"]["value"] == 0
            assert snap["queue_wait_s"]["count"] == 32
        finally:
            svc.close()

    def test_faults_retried_with_backoff(self):
        """Transient worker faults retry with exponential backoff and are
        visible in metrics; permanent faults exhaust retries and fail."""
        config = make_config()
        fail_once: set[str] = {"qr-flaky"}

        def flaky_runner(spec, job_config, concurrency):
            if spec.name in fail_once:
                fail_once.discard(spec.name)
                raise RuntimeError("injected transient worker fault")
            if spec.name == "qr-dead":
                raise RuntimeError("injected permanent worker fault")
            return run_job(spec, job_config, concurrency)

        svc = FactorService(
            config, n_workers=1, max_retries=2, backoff_base_s=0.01,
            runner=flaky_runner,
        )
        a = default_rng(0).standard_normal((48, 24)).astype(np.float32)
        try:
            h_ok = svc.submit(JobSpec("qr", (a,), options=OPTS, name="qr-flaky"))
            res = h_ok.result(timeout=60)
            assert h_ok.attempts == 2          # one fault, one success
            assert "q" in res.arrays

            h_bad = svc.submit(
                JobSpec("qr", (a * 2.0,), options=OPTS, name="qr-dead")
            )
            with pytest.raises(RuntimeError, match="permanent"):
                h_bad.result(timeout=60)
            assert h_bad.state is JobState.FAILED
            assert h_bad.attempts == 3         # initial + max_retries

            snap = svc.snapshot_metrics()
            assert snap["job_retries"]["value"] == 1 + 2
            assert snap["jobs_failed"]["value"] == 1
            assert snap["jobs_completed"]["value"] == 1
        finally:
            svc.close()

    def test_deterministic_errors_fail_fast(self):
        """Input errors (ValidationError etc.) never burn retries."""
        config = make_config()

        def bad_runner(spec, job_config, concurrency):
            raise ValidationError("shape will never work")

        svc = FactorService(config, n_workers=1, max_retries=3,
                            backoff_base_s=0.01, runner=bad_runner)
        a = default_rng(1).standard_normal((32, 16)).astype(np.float32)
        try:
            h = svc.submit(JobSpec("qr", (a,), options=OPTS))
            with pytest.raises(ValidationError):
                h.result(timeout=60)
            assert h.attempts == 1
            assert svc.snapshot_metrics()["job_retries"]["value"] == 0
        finally:
            svc.close()


class TestBackpressure:
    def test_footprint_over_budget_rejected(self):
        config = make_config()
        svc = FactorService(config, device_budget=64 << 10, n_workers=1)
        big = default_rng(2).standard_normal((512, 256)).astype(np.float32)
        try:
            with pytest.raises(AdmissionError) as ei:
                svc.submit(JobSpec("qr", (big,), options=QrOptions(blocksize=256)))
            assert ei.value.reason == "footprint-over-budget"
            assert svc.snapshot_metrics()["jobs_rejected"]["value"] == 1
        finally:
            svc.close()

    def test_queue_saturation_rejected(self):
        config = make_config()
        release = threading.Event()

        def slow_runner(spec, job_config, concurrency):
            release.wait(30)
            return run_job(spec, job_config, concurrency)

        svc = FactorService(config, n_workers=1, queue_limit=2,
                            runner=slow_runner, cache=None)
        a = default_rng(3).standard_normal((32, 16)).astype(np.float32)
        spec = lambda: JobSpec("qr", (a,), options=OPTS)  # noqa: E731
        try:
            handles = [svc.submit(spec())]       # dispatched to the worker
            deadline = time.time() + 10
            while svc.admission.in_use_bytes == 0 and time.time() < deadline:
                time.sleep(0.005)                # wait for the dispatch
            handles += [svc.submit(spec()), svc.submit(spec())]  # queued
            with pytest.raises(AdmissionError) as ei:
                svc.submit(spec())               # queue is full now
            assert ei.value.reason == "queue-saturated"
            release.set()
            for h in handles:
                h.result(timeout=60)
        finally:
            release.set()
            svc.close()

    def test_submit_after_close_rejected(self):
        config = make_config()
        svc = FactorService(config, n_workers=1)
        svc.close()
        a = default_rng(4).standard_normal((32, 16)).astype(np.float32)
        with pytest.raises(AdmissionError) as ei:
            svc.submit(JobSpec("qr", (a,), options=OPTS))
        assert ei.value.reason == "service-closed"

    def test_close_fails_still_queued_jobs(self):
        config = make_config()
        release = threading.Event()

        def slow_runner(spec, job_config, concurrency):
            release.wait(30)
            return run_job(spec, job_config, concurrency)

        svc = FactorService(config, n_workers=1, runner=slow_runner, cache=None)
        a = default_rng(5).standard_normal((32, 16)).astype(np.float32)
        running = svc.submit(JobSpec("qr", (a,), options=OPTS))
        deadline = time.time() + 10
        while svc.admission.in_use_bytes == 0 and time.time() < deadline:
            time.sleep(0.005)
        queued = svc.submit(JobSpec("qr", (a,), options=OPTS))
        release.set()
        svc.close(wait=True)
        assert running.result(timeout=60) is not None
        exc = queued.exception(timeout=60)
        assert isinstance(exc, AdmissionError)
        assert exc.reason == "service-closed"


class TestScheduling:
    def test_priority_order(self):
        """With one worker saturated, queued jobs dispatch by priority."""
        config = make_config()
        order: list[str] = []
        gate = threading.Event()

        def tracking_runner(spec, job_config, concurrency):
            if spec.name == "blocker":
                gate.wait(30)
            else:
                order.append(spec.name)
            return run_job(spec, job_config, concurrency)

        svc = FactorService(config, n_workers=1, runner=tracking_runner,
                            cache=None)
        a = default_rng(6).standard_normal((32, 16)).astype(np.float32)
        try:
            blocker = svc.submit(
                JobSpec("qr", (a,), options=OPTS, name="blocker")
            )
            deadline = time.time() + 10
            while svc.admission.in_use_bytes == 0 and time.time() < deadline:
                time.sleep(0.005)
            handles = [
                svc.submit(JobSpec("qr", (a,), options=OPTS,
                                   priority=p, name=name))
                for p, name in ((2, "low"), (0, "high"), (1, "mid"))
            ]
            gate.set()
            for h in [blocker, *handles]:
                h.result(timeout=60)
            assert order == ["high", "mid", "low"]
        finally:
            gate.set()
            svc.close()

    def test_sim_jobs_capacity_planning(self):
        """Shape-only sim jobs ride the same queue and report makespans."""
        config = make_config(64 << 20)
        svc = FactorService(config, n_workers=2)
        try:
            specs = [
                JobSpec("qr", ((4096, 2048),), mode="sim",
                        options=QrOptions(blocksize=256)),
                JobSpec("cholesky", ((2048, 2048),), mode="sim",
                        options=QrOptions(blocksize=256)),
            ]
            for spec in specs:
                res = svc.submit(spec).result(timeout=60)
                assert res.arrays == {}
                assert res.makespan > 0.0
                assert res.moved_bytes > 0
        finally:
            svc.close()

    def test_small_jobs_overtake_blocked_head(self):
        """A job too large for the remaining budget must not block
        smaller queued jobs (first-fit packing)."""
        config = make_config()
        started: list[str] = []
        gate = threading.Event()

        def gated_runner(spec, job_config, concurrency):
            started.append(spec.name)
            if spec.name == "holder":
                gate.wait(30)
            return run_job(spec, job_config, concurrency)

        a = default_rng(7).standard_normal((32, 16)).astype(np.float32)
        svc = FactorService(config, n_workers=2, cache=None, runner=gated_runner)
        try:
            # pin most of the budget under a gated job
            budget = svc.admission.budget_bytes
            holder = svc.submit(
                JobSpec("qr", (a,), options=OPTS, name="holder",
                        device_memory=budget * 3 // 4)
            )
            deadline = time.time() + 10
            while not started and time.time() < deadline:
                time.sleep(0.005)
            # "big" cannot fit next to the holder; "small" can
            big = svc.submit(
                JobSpec("qr", (a,), options=OPTS, name="big",
                        priority=0, device_memory=budget // 2)
            )
            small = svc.submit(
                JobSpec("qr", (a,), options=OPTS, name="small",
                        priority=5, device_memory=16 << 10)
            )
            small.result(timeout=60)      # finishes while holder still runs
            assert "big" not in started   # big stayed queued the whole time
            gate.set()
            big.result(timeout=60)
            holder.result(timeout=60)
        finally:
            gate.set()
            svc.close()


class TestServiceMisc:
    def test_context_manager_and_drain(self):
        config = make_config()
        a = default_rng(8).standard_normal((32, 16)).astype(np.float32)
        with FactorService(config, n_workers=2) as svc:
            handles = [svc.submit(JobSpec("qr", (a,), options=OPTS))
                       for _ in range(3)]
            assert svc.drain(timeout=60)
            assert all(h.done() for h in handles)

    def test_threaded_jobs_bitwise_equal_serial(self):
        """job_concurrency='threads' changes nothing numerically."""
        config = make_config()
        a = default_rng(9).standard_normal((64, 32)).astype(np.float32)
        spec = JobSpec("qr", (a,), options=OPTS)
        with FactorService(config, cache=None) as serial_svc:
            r_serial = serial_svc.submit(spec).result(timeout=60)
        with FactorService(config, cache=None,
                           job_concurrency="threads") as threads_svc:
            r_threads = threads_svc.submit(spec).result(timeout=60)
        for name in r_serial.arrays:
            assert np.array_equal(r_serial.arrays[name],
                                  r_threads.arrays[name])

    def test_operands_not_mutated(self):
        """Submitting never corrupts caller arrays (in-place drivers run
        on internal copies)."""
        config = make_config()
        a = default_rng(10).standard_normal((48, 24)).astype(np.float32)
        before = a.copy()
        with FactorService(config) as svc:
            svc.submit(JobSpec("qr", (a,), options=OPTS)).result(timeout=60)
        assert np.array_equal(a, before)


class TestPlanVerification:
    """Static plan verification at submit (verify_plans, default on)."""

    def _spec(self, seed: int = 11, **kwargs) -> JobSpec:
        a = default_rng(seed).standard_normal((48, 32)).astype(np.float32)
        return JobSpec("qr", (a,), options=OPTS, **kwargs)

    def test_clean_plan_charged_exact_peak(self):
        config = make_config()
        spec = self._spec()
        with FactorService(config) as svc:
            handle = svc.submit(spec)
            result = handle.result(timeout=60)
            snap = svc.snapshot_metrics()
        # the exact peak undercuts the plan heuristic, never exceeds it
        assert 0 < handle.charged_bytes < handle.footprint_bytes
        assert snap["plans_verified"]["value"] == 1
        assert snap["plans_rejected"]["value"] == 0
        # and the result is still the direct run, bit for bit
        direct = run_direct(spec, config)
        for name, arr in direct.items():
            assert np.array_equal(result.arrays[name], arr)

    def test_exact_peak_admits_what_heuristic_budget_would_not(self):
        config = make_config()
        spec = self._spec()
        with FactorService(config) as probe:
            footprint = estimate_footprint_bytes(spec, config)
            peak = probe.verify_job(spec).peak_bytes
        assert peak < footprint
        # a budget that holds the proven peak but not the heuristic
        with FactorService(config, device_budget=peak) as svc:
            handle = svc.submit(spec)
            handle.result(timeout=60)
        assert handle.charged_bytes == peak

    def test_unsafe_plan_quarantined_before_queue(self):
        from repro.analysis import AnalysisFinding, AnalysisReport
        from repro.errors import PlanViolation

        config = make_config()
        ran = threading.Event()

        def runner(spec, job_config, concurrency):
            ran.set()
            return run_job(spec, job_config, concurrency=concurrency)

        bad = AnalysisReport(label="doctored")
        bad.findings.append(
            AnalysisFinding(rule="race", message="seeded defect", op="gemm")
        )
        with FactorService(config, runner=runner) as svc:
            svc._verify_plan = lambda spec, footprint: bad
            with pytest.raises(AdmissionError) as exc:
                svc.submit(self._spec())
            snap = svc.snapshot_metrics()
        assert exc.value.reason == "plan-rejected"
        assert isinstance(exc.value.__cause__, PlanViolation)
        assert exc.value.__cause__.report is bad
        assert "seeded defect" in str(exc.value)
        assert snap["plans_rejected"]["value"] == 1
        assert snap["plans_verified"]["value"] == 0
        assert not ran.is_set()  # never reached a worker

    def test_builder_refused_plan_quarantined_before_queue(self, monkeypatch):
        # a defect the graph builder refuses outright (the first H2D target
        # freed while the engine keeps using it) is rejected like a
        # verifier finding, with the builder's typed error as the cause
        from repro.errors import ExecutionError
        from repro.runtime import GraphBuilder, engines

        class FreeEarly(GraphBuilder):
            freed = False

            def h2d(self, dst, src, stream):
                super().h2d(dst, src, stream)
                if not self.freed:
                    self.freed = True
                    self.free(dst if hasattr(dst, "payload") else dst.buffer)

        monkeypatch.setattr(engines, "GraphBuilder", FreeEarly)
        ran = threading.Event()

        def runner(spec, job_config, concurrency):
            ran.set()
            return run_job(spec, job_config, concurrency=concurrency)

        with FactorService(make_config(), runner=runner) as svc:
            with pytest.raises(AdmissionError) as exc:
                svc.submit(self._spec())
            snap = svc.snapshot_metrics()
        assert exc.value.reason == "plan-rejected"
        assert isinstance(exc.value.__cause__, ExecutionError)
        assert "use of freed device buffer" in str(exc.value)
        assert snap["plans_rejected"]["value"] == 1
        assert snap["plans_verified"]["value"] == 0
        assert not ran.is_set()  # never reached a worker

    def test_repeated_plan_verified_once(self, monkeypatch):
        # the report depends on the plan, not on operand values: a second
        # job of the same shape reuses it; a new shape records a new graph
        from repro.runtime import build_job_graph

        built = []

        def counting(spec, config):
            built.append(spec.shapes())
            return build_job_graph(spec, config)

        monkeypatch.setattr("repro.runtime.build_job_graph", counting)
        with FactorService(make_config()) as svc:
            first = svc.verify_job(self._spec(seed=1))
            again = svc.verify_job(self._spec(seed=2))
            wider = svc.verify_job(JobSpec(
                "qr", (default_rng(3).standard_normal((64, 32)),),
                options=OPTS,
            ))
        assert again is first
        assert wider is not first and wider.ok
        assert built == [((48, 32),), ((64, 32),)]

    def test_explicit_reservation_charged_as_requested(self):
        config = make_config()
        reservation = 1 << 19
        spec = self._spec(device_memory=reservation)
        with FactorService(config) as svc:
            handle = svc.submit(spec)
            handle.result(timeout=60)
        # a deliberate reservation is headroom the caller asked to hold:
        # verification still runs, but the charge is not shrunk to the peak
        assert handle.footprint_bytes == reservation
        assert handle.charged_bytes == reservation

    def test_verify_plans_off_restores_heuristic_charging(self):
        config = make_config()
        with FactorService(config, verify_plans=False) as svc:
            handle = svc.submit(self._spec())
            handle.result(timeout=60)
            snap = svc.snapshot_metrics()
        assert handle.charged_bytes == handle.footprint_bytes
        assert snap["plans_verified"]["value"] == 0

    def test_verify_job_ad_hoc(self):
        config = make_config()
        with FactorService(config) as svc:
            report = svc.verify_job(self._spec())
        assert report.ok
        assert report.peak_bytes > 0
        assert report.n_ops > 0

    @pytest.mark.parametrize("blocksize", [128, 256, 512])
    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_single_panel_qr_plans_are_clean(self, method, blocksize):
        """Regression: with b >= n the recursive run is one leaf panel, whose
        full b-by-b R writeback the §3.2 D2H bound used to leave out — a
        valid 256x256 job failed admission with volume-over-model."""
        spec = JobSpec(
            "qr", ((256, 256),), method=method, mode="sim",
            options=QrOptions(blocksize=blocksize),
        )
        with FactorService() as svc:
            report = svc.verify_job(spec)
        assert report.ok, report.findings
        assert report.volume_model == method
        assert report.d2h_bytes <= report.model_d2h_bytes
