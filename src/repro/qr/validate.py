"""Shared input validation for the OOC QR drivers."""

from __future__ import annotations

from repro.errors import ShapeError, ValidationError
from repro.host.tiled import HostMatrix
from repro.qr.options import QrOptions


def check_qr_inputs(
    a: HostMatrix, r: HostMatrix, options: QrOptions
) -> tuple[int, int]:
    """Validate the (A, R) pair for an OOC QR run; returns (m, n).

    A must be tall (m >= n). R must be n-by-n. Both must agree on backing:
    either both carry data (numeric run) or both are shape-only
    (simulated run) — a mixed pair is almost certainly a caller bug.
    """
    m, n = a.shape
    if m < n:
        raise ShapeError(
            f"OOC QR requires a tall matrix (m >= n), got {m}x{n}"
        )
    if r.shape != (n, n):
        raise ShapeError(f"R must be {n}x{n}, got {r.shape[0]}x{r.shape[1]}")
    if a.backed != r.backed:
        raise ValidationError(
            "A and R must both be backed (numeric) or both shape-only "
            f"(simulated); got A backed={a.backed}, R backed={r.backed}"
        )
    if a.element_bytes != r.element_bytes:
        raise ValidationError(
            "A and R must have the same element size, got "
            f"{a.element_bytes} and {r.element_bytes}"
        )
    if options.blocksize > m:
        raise ValidationError(
            f"blocksize {options.blocksize} exceeds the row count {m}"
        )
    return m, n
