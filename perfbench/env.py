"""Environment fingerprint, host peak probes and the set-up measurement.

The BLAS thread count is read, never set: the thread budget is the
program's job, and the benchmark only records what the program ran with.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from checkout import ROOT

#: Last-level cache of the reference host (Intel Xeon, 2 vCPUs), stated
#: next to every probe size so a reader can tell cache from DRAM rates.
L3_BYTES = 300 << 20

#: Matmul probe: fp32 2048^2 operands, 48 MiB for A, B and C together.
MATMUL_N = 2048
#: Copy probe: 64 MiB source + 64 MiB destination = 0.43x the L3. The
#: executors' tile copies move sub-MiB tiles of a 32 MiB matrix, also
#: cache-resident, so the probe measures the same regime they run in.
COPY_BYTES = 64 << 20
PROBE_REPEATS = 5

#: Fresh-process set-up probes per run; the median is reported.
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60


def _openblas():
    """numpy's bundled OpenBLAS, opened via ctypes (already loaded by
    numpy, so this maps the same library), or None."""
    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in sorted(glob.glob(os.path.join(libs, "libscipy_openblas*.so*"))):
        try:
            return ctypes.CDLL(path)
        except OSError:
            continue
    return None


def _blas_info() -> dict:
    lib = _openblas()
    if lib is None:
        return {"openblas": "unknown", "blas_threads": None}
    info: dict = {}
    get_threads = getattr(lib, "scipy_openblas_get_num_threads64_", None)
    if get_threads is not None:
        get_threads.argtypes = []
        get_threads.restype = ctypes.c_int
        info["blas_threads"] = int(get_threads())
    get_config = getattr(lib, "scipy_openblas_get_config64_", None)
    if get_config is not None:
        get_config.argtypes = []
        get_config.restype = ctypes.c_char_p
        info["openblas"] = get_config().decode(errors="replace").strip()
    return info


def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git;
    'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint() -> dict:
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    return {
        "numpy": np.__version__,
        "scipy": scipy_version,
        **_blas_info(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
        "l3_bytes": L3_BYTES,
        "matmul_probe_bytes": 3 * MATMUL_N * MATMUL_N * 4,
        "copy_probe_bytes": 2 * COPY_BYTES,
    }


def host_probes() -> dict[str, float]:
    """Best-of-N fp32 matmul rate (GFLOP/s) and copy rate (GB/s of
    bytes copied, computed from the array size)."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
    b = rng.standard_normal((MATMUL_N, MATMUL_N), dtype=np.float32)
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        np.matmul(a, b)
        best = min(best, time.perf_counter() - t0)
    gflops = 2.0 * MATMUL_N ** 3 / best / 1e9
    del a, b
    src = np.ones(COPY_BYTES // 4, dtype=np.float32)
    dst = np.empty_like(src)
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    return {
        "host.matmul_peak_gflops": gflops,
        "host.copy_peak_gbps": COPY_BYTES / best / 1e9,
    }


def measure_setup() -> list[float]:
    """Wall seconds of fresh processes that import the program and warm
    up every job kind and runtime (``setup_probe.py``), run one at a
    time; raises if a probe fails."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(probe)], cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S,
        )
        samples.append(time.perf_counter() - t0)
    return samples


def peak_rss_mib() -> float:
    import resource

    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

