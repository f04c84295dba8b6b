"""Static analysis: plan verifier and repo lint pack.

Proves OOC pipelines race-free, leak-free, and within the device-memory
budget *before* they run. :mod:`repro.analysis.verify` runs
happens-before hazard analysis, allocator lifetime proofs, exact
peak-memory accounting, and §3.2 transfer-volume checks over a recorded
program — a :class:`~repro.runtime.task.TaskGraph` built with no data and
no clock (see :mod:`repro.runtime.engines` for the engine registry and
sweep; the runtime imports this package, so the sweep lives there to keep
the dependency one-way). :mod:`repro.analysis.precision` is the static
precision / error-flow pass (per-tile precision lattice + symbolic
forward-error bound, judged against a caller tolerance);
:mod:`repro.analysis.lint` is the AST-based repo lint pack behind
``tools/lint_repro.py``. See docs/analysis.md.
"""

from repro.analysis.precision import (
    DEFAULT_TOLERANCE,
    PRECISION_LEVELS,
    PRECISION_RULES,
    PrecisionFlow,
    PrecisionPlan,
    assert_precision_ok,
    check_precision,
    propagate,
)
from repro.analysis.verify import (
    VOLUME_SLACK,
    AnalysisFinding,
    AnalysisReport,
    assert_plan_ok,
    exact_peak_bytes,
    verify_program,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "PRECISION_LEVELS",
    "PRECISION_RULES",
    "VOLUME_SLACK",
    "AnalysisFinding",
    "AnalysisReport",
    "PrecisionFlow",
    "PrecisionPlan",
    "assert_plan_ok",
    "assert_precision_ok",
    "check_precision",
    "exact_peak_bytes",
    "propagate",
    "verify_program",
]
