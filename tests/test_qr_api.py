"""Tests for the public ooc_qr entry point."""

import gc

import numpy as np
import pytest

from repro.bench.workloads import random_tall
from repro.config import SystemConfig
from repro.errors import ValidationError
from repro.factor.api import ooc_cholesky, ooc_lu
from repro.factor.incore import diagonally_dominant, spd_matrix
from repro.host.tiled import HostMatrix
from repro.hw.gemm import Precision
from repro.qr.api import ooc_qr
from repro.qr.cgs import factorization_error
from repro.qr.options import QrOptions
from tests.conftest import make_tiny_spec


@pytest.fixture
def config():
    return SystemConfig(gpu=make_tiny_spec(4 << 20), precision=Precision.FP32)


class TestNumericMode:
    def test_ndarray_input(self, config):
        a = random_tall(120, 64, seed=20)
        res = ooc_qr(a, method="recursive", config=config, blocksize=16)
        assert res.mode == "numeric"
        assert res.q.shape == (120, 64)
        assert res.r.shape == (64, 64)
        assert factorization_error(a, res.q, res.r) < 1e-4
        assert res.trace is None

    def test_input_array_not_mutated(self, config):
        a = random_tall(64, 32, seed=21)
        a0 = a.copy()
        ooc_qr(a, config=config, blocksize=16)
        np.testing.assert_array_equal(a, a0)

    def test_host_matrix_factorized_in_place(self, config):
        a_np = random_tall(64, 32, seed=22)
        hm = HostMatrix.from_array(a_np.copy())
        res = ooc_qr(hm, config=config, blocksize=16)
        assert res.q is hm.data  # in place for HostMatrix inputs

    def test_float64_input_converted(self, config):
        a = random_tall(64, 32, seed=23).astype(np.float64)
        res = ooc_qr(a, config=config, blocksize=16)
        assert res.q.dtype == np.float32

    def test_movement_report(self, config):
        a = random_tall(96, 48, seed=24)
        res = ooc_qr(a, config=config, blocksize=16)
        assert res.movement.h2d_bytes > 0
        assert res.movement.d2h_bytes > 0
        assert res.movement.total_flops > 0

    def test_device_memory_cap(self):
        a = random_tall(128, 64, seed=25)
        res = ooc_qr(a, blocksize=16, device_memory=1 << 20)
        assert res.config.gpu.mem_bytes == 1 << 20
        assert factorization_error(a, res.q, res.r) < 5e-3  # default fp16

    def test_blocking_method(self, config):
        a = random_tall(96, 48, seed=26)
        res = ooc_qr(a, method="blocking", config=config, blocksize=16)
        assert res.method == "blocking"
        assert factorization_error(a, res.q, res.r) < 1e-4

    @pytest.mark.parametrize("runtime", ["legacy", "dag"])
    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_call_leaves_no_reference_cycles(self, config, method, runtime):
        # the host working copy and R must be freed as soon as the caller
        # drops the result, not whenever the cyclic collector next runs
        a = random_tall(96, 64, seed=23)
        _assert_no_cycles(lambda: ooc_qr(
            a, method=method, config=config, blocksize=16, runtime=runtime
        ))

    @pytest.mark.parametrize("runtime", ["legacy", "dag"])
    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    def test_threaded_call_leaves_no_reference_cycles(
        self, config, method, runtime
    ):
        # recorded ops keep their stream's name, not the stream, so the
        # threaded executor's op <-> stream links form no cycle
        a = random_tall(96, 64, seed=23)
        _assert_no_cycles(lambda: ooc_qr(
            a, method=method, config=config, blocksize=16, runtime=runtime,
            concurrency="threads",
        ))

    @pytest.mark.parametrize("concurrency", ["serial", "threads"])
    @pytest.mark.parametrize("method", ["recursive", "blocking"])
    @pytest.mark.parametrize("kind", ["lu", "cholesky"])
    def test_factor_call_leaves_no_reference_cycles(
        self, kind, method, concurrency
    ):
        # the recursive LU/Cholesky drivers share the QR driver's
        # self-referencing closure; 1 MiB forces out-of-core tiling
        if kind == "lu":
            a, run = diagonally_dominant(96, seed=5), ooc_lu
        else:
            a, run = spd_matrix(96, seed=5), ooc_cholesky
        cfg = SystemConfig(gpu=make_tiny_spec(1 << 20), precision=Precision.FP32)
        _assert_no_cycles(lambda: run(
            a, method=method, config=cfg, blocksize=16,
            concurrency=concurrency,
        ))


def _assert_no_cycles(call) -> None:
    """Call twice (the first warms caches); the second must leave nothing
    for the cyclic collector."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestSimMode:
    def test_shape_input_defaults_to_sim(self):
        res = ooc_qr((8192, 8192), blocksize=1024)
        assert res.mode == "sim"
        assert res.q is None and res.r is None
        assert res.makespan > 0
        assert res.achieved_tflops > 0

    def test_phase_times(self):
        res = ooc_qr((8192, 8192), blocksize=1024)
        phases = res.phase_times()
        assert {"panel", "inner", "outer"} <= set(phases)
        assert all(v > 0 for v in phases.values())

    def test_numeric_mode_on_shape_rejected(self):
        with pytest.raises(ValidationError, match="shape"):
            ooc_qr((100, 100), mode="numeric")

    def test_sim_mode_with_array(self, config):
        # allowed: the array's shape is used, data ignored by the sim
        a = random_tall(64, 32, seed=27)
        res = ooc_qr(a, mode="sim", config=config, blocksize=16)
        assert res.makespan > 0
        assert res.q is not None  # array carried through but not factorized


class TestHybridMode:
    def test_results_and_trace(self, config):
        a = random_tall(96, 48, seed=28)
        res = ooc_qr(a, mode="hybrid", config=config, blocksize=16)
        assert factorization_error(a, res.q, res.r) < 1e-4
        assert res.trace is not None
        assert res.makespan > 0
        assert res.stats.makespan == res.makespan


class TestValidation:
    def test_bad_method(self):
        with pytest.raises(ValidationError):
            ooc_qr((10, 10), method="magic")

    def test_bad_mode(self):
        with pytest.raises(ValidationError):
            ooc_qr((10, 10), mode="telepathic")

    def test_bad_input_type(self):
        with pytest.raises(ValidationError):
            ooc_qr("not a matrix")

    def test_options_and_blocksize_override(self, config):
        res = ooc_qr(
            (2048, 2048),
            config=config,
            options=QrOptions(blocksize=1024, gradual_blocksize=True),
            blocksize=128,
        )
        assert res.options.blocksize == 128
        assert res.options.gradual_blocksize  # other fields preserved
