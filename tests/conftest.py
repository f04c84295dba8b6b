"""Shared fixtures: scaled-down GPU specs so numeric runs exercise the same
out-of-core machinery (tiling, spills, capacity errors) on small matrices."""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import settings as hypothesis_settings

from repro.config import SystemConfig
from repro.execution.numeric import NumericExecutor
from repro.execution.sim import SimExecutor
from repro.hw.gemm import Precision
from repro.hw.specs import GpuSpec
from repro.util.rng import default_rng

# Deterministic hypothesis runs in CI (HYPOTHESIS_PROFILE=ci); locally the
# default profile keeps random exploration but drops the flaky deadline.
hypothesis_settings.register_profile("ci", derandomize=True, deadline=None)
hypothesis_settings.register_profile("dev", deadline=None)
hypothesis_settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "dev"))


@pytest.fixture(autouse=True)
def strict_fp():
    """Fail tests that silently generate NaNs: invalid operations and
    zero-divides raise instead of warning. Overflow/underflow stay
    permissive — the TensorCore emulation *intentionally* saturates
    fp16 (that is what the health sentinel's QuantStats counts)."""
    with np.errstate(invalid="raise", divide="raise"):
        yield


def make_tiny_spec(mem_bytes: int = 1 << 20, name: str = "tiny") -> GpuSpec:
    """A toy GPU: 1 MiB device memory, deliberately slow-ish rates so
    simulated pipelines have interesting (non-degenerate) structure."""
    return GpuSpec(
        name=name,
        mem_bytes=mem_bytes,
        tc_peak_flops=1.0e12,
        cuda_peak_flops=1.0e11,
        h2d_bytes_per_s=1.0e9,
        d2h_bytes_per_s=1.1e9,
        d2d_bytes_per_s=50.0e9,
    )


@pytest.fixture
def tiny_spec() -> GpuSpec:
    return make_tiny_spec()


@pytest.fixture
def tiny_config(tiny_spec) -> SystemConfig:
    """Tiny GPU, exact fp32 GEMMs (for tight numeric comparisons)."""
    return SystemConfig(gpu=tiny_spec, precision=Precision.FP32)


@pytest.fixture
def tiny_config_fp16(tiny_spec) -> SystemConfig:
    """Tiny GPU with TensorCore fp16 input rounding."""
    return SystemConfig(gpu=tiny_spec, precision=Precision.TC_FP16)


@pytest.fixture
def numeric_ex(tiny_config) -> NumericExecutor:
    return NumericExecutor(tiny_config)


@pytest.fixture
def sim_ex(tiny_config) -> SimExecutor:
    return SimExecutor(tiny_config)


@pytest.fixture
def rng() -> np.random.Generator:
    return default_rng(1234)
