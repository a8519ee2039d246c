"""Runtime numerical sanitizer for the PHMM kernels and accumulators.

Debug mode that validates the numerical invariants the pipeline's
correctness rests on, at the four places bad values can enter or propagate:

* **emissions** — ``p*`` must be finite and inside ``[0, 1]``,
* **forward/backward kernels** — scaled DP matrices must be finite and
  non-negative, log scales finite, likelihoods finite or ``-inf`` (an
  impossible alignment is a legal outcome; ``NaN``/``+inf`` never are),
* **z vectors** — per-position evidence must be finite, non-negative, and
  sum to at most 1 per window position (each read contributes at most one
  unit of mass per position),
* **accumulators** — accumulated evidence must stay finite and
  non-negative (what pool workers ship home is checked by
  :func:`check_partial` on every run, sanitizer on or off).

Activation: the CLI flag ``--sanitize``, or :func:`enable` / the
:func:`sanitized` context manager programmatically; pool workers get the
parent's switch with each chunk, never from the environment.
When off — the default — every hook is a single module-level boolean test,
so the kernels pay no measurable cost.

Failures raise :class:`repro.errors.SanitizerError` carrying the failed
check's name and the open observability span path (e.g.
``map_reads/align``), so a corrupted value is attributed to the pipeline
stage that produced it rather than the stage that crashed on it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, NoReturn, Sequence

import numpy as np

from repro.errors import SanitizerError
from repro.observability.spans import current_path

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.phmm.banded import BandSpec

#: Tolerance for "sums to at most 1" style checks; scaled-probability
#: arithmetic accumulates rounding at ~1e-12 per chain, far below this.
SUM_TOLERANCE = 1e-6

_active: bool = False


def enabled() -> bool:
    """Is the sanitizer currently active?"""
    return _active


def enable() -> None:
    """Turn sanitizer checks on for this process."""
    global _active
    _active = True


def disable() -> None:
    """Turn sanitizer checks off."""
    global _active
    _active = False


@contextmanager
def sanitized(on: bool = True) -> Iterator[None]:
    """Scoped activation: run the block with the sanitizer on (or off)."""
    global _active
    prev = _active
    _active = on
    try:
        yield
    finally:
        _active = prev


def _fail(check: str, detail: str) -> NoReturn:
    raise SanitizerError(check=check, detail=detail, span_path=current_path())


def _describe_bad(arr: np.ndarray, bad: np.ndarray) -> str:
    """Locate the first offending element for the error message."""
    idx = np.argwhere(bad)
    first = tuple(int(i) for i in idx[0])
    return f"{int(bad.sum())} bad value(s); first at index {first}: {arr[first]!r}"


def check_finite(check: str, name: str, arr: np.ndarray, allow_neg_inf: bool = False) -> None:
    """Fail on NaN, ``+inf`` and (unless allowed) ``-inf``."""
    arr = np.asarray(arr)
    bad = np.isnan(arr) | (arr == np.inf)
    if not allow_neg_inf:
        bad |= arr == -np.inf
    if bad.any():
        _fail(check, f"{name} contains non-finite values: {_describe_bad(arr, bad)}")


def check_non_negative(check: str, name: str, arr: np.ndarray) -> None:
    """Fail on negative entries (probabilities/evidence are masses)."""
    arr = np.asarray(arr)
    bad = arr < 0
    if bad.any():
        _fail(check, f"{name} contains negative probability mass: {_describe_bad(arr, bad)}")


def check_emissions(pstar: np.ndarray) -> None:
    """``p*`` entries are probabilities: finite and in ``[0, 1 + tol]``."""
    pstar = np.asarray(pstar)
    check_finite("emissions", "pstar", pstar)
    check_non_negative("emissions", "pstar", pstar)
    bad = pstar > 1.0 + SUM_TOLERANCE
    if bad.any():
        _fail("emissions", f"pstar exceeds 1: {_describe_bad(pstar, bad)}")


def check_pass(
    kind: str,
    states: "Sequence[np.ndarray]",
    log_scale: np.ndarray,
    band: "BandSpec | None" = None,
    loglik: "np.ndarray | None" = None,
) -> None:
    """One ``kind`` (``"forward"``/``"backward"``) pass: scaled ``(M, GX, GY)``
    matrices finite and non-negative, log scales finite, ``loglik`` finite or
    ``-inf``, exact zeros outside ``band``."""
    for name, arr in zip(("M", "GX", "GY"), states):
        check_finite(kind, kind[0] + name, arr)
        check_non_negative(kind, kind[0] + name, arr)
    check_finite(kind, "log_scale", log_scale)
    if loglik is not None:
        check_finite(kind, "loglik", loglik, allow_neg_inf=True)
    if band is not None:
        check_band(*states, band=band, kind=kind)


def check_z(z: np.ndarray, valid: "np.ndarray | None" = None) -> None:
    """Per-read z evidence: finite, non-negative, at most unit mass/position.

    ``z`` is ``(B, M, 5)``; ``valid`` optionally masks genome-edge pad
    columns (mass there is zeroed by the caller and not re-checked).
    """
    z = np.asarray(z)
    check_finite("z_vectors", "z", z)
    check_non_negative("z_vectors", "z", z)
    sums = z.sum(axis=-1)
    if valid is not None:
        sums = np.where(np.asarray(valid, dtype=bool), sums, 0.0)
    bad = sums > 1.0 + SUM_TOLERANCE
    if bad.any():
        _fail(
            "z_vectors",
            "per-position z mass exceeds 1 (posterior not normalised): "
            + _describe_bad(sums, bad),
        )


def check_band(
    sM: np.ndarray,
    sGX: np.ndarray,
    sGY: np.ndarray,
    band: "BandSpec",
    kind: str = "forward",
) -> None:
    """Band mass conservation: banded DP matrices are exactly zero outside
    the band.

    The banded kernels write only zeros outside the band, so any non-zero
    mass there means an index-arithmetic bug leaked probability across the
    band boundary — the invariant the escape-hatch accounting rests on.
    """
    outside = band.outside_mask()[None, :, :]
    for name, arr in (("M", sM), ("GX", sGX), ("GY", sGY)):
        arr = np.asarray(arr)
        bad = (arr != 0.0) & outside
        if bad.any():
            _fail(
                f"band_{kind}",
                f"state {name} has probability mass outside the band "
                f"(center={band.center}, width={band.width}): "
                + _describe_bad(arr, bad),
            )


def check_accumulator(evidence: np.ndarray, where: str = "accumulator") -> None:
    """Accumulated ``(P, 5)`` evidence stays finite and non-negative."""
    evidence = np.asarray(evidence)
    check_finite(where, "evidence", evidence)
    check_non_negative(where, "evidence", evidence)


def check_partial(evidence: np.ndarray, chunk_id: int) -> None:
    """Chunk-level validation of evidence a pool worker shipped home.

    Runs :func:`check_accumulator` with the failure attributed to the
    producing chunk (``mp.chunk[<id>].partial``), so corrupted evidence is
    rejected — and retried — *before* it can reach the accumulator, rather
    than surfacing as a bogus SNP (or a late failure with no attribution)
    downstream.  The pool runs this on every chunk whether or not the
    sanitizer is enabled.
    """
    check_accumulator(evidence, where=f"mp.chunk[{chunk_id}].partial")
