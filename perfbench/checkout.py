"""Locate the program under test: the ``repro`` package in the ``src``
directory of the checkout this benchmark sits in."""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import
    ``repro`` from it; exits non-zero when the checkout has no program
    (so no result is ever printed for code that is not there)."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no program to measure: {package} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {package}")
