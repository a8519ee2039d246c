"""Batched, scaled forward/backward dynamic programmes.

This is the hot path of the whole system, engineered per the HPC guides:

* **Batch-first**: a batch of ``B`` (read, window) pairs is processed in
  ``(B, N+1, M+1)`` arrays; every DP step is a whole-row NumPy operation over
  the batch, so Python-level loop overhead is paid ``N`` times per batch
  instead of ``N*M`` times per alignment.
* **In-row recurrences as IIR filters**: ``f_GY(i, j)`` depends on
  ``f_GY(i, j-1)`` within the same row — a first-order linear recurrence —
  which :func:`scipy.signal.lfilter` evaluates at C speed along the last
  axis (the backward ``b_GY`` recurrence runs the same filter on the
  reversed row).
* **Per-row scaling** keeps values in float64 range; cumulative log scales
  are carried alongside so likelihoods and posteriors are exact.

Recursions (Durbin et al. 1998 ch. 4; see the note in
:mod:`repro.phmm.model` about the paper's forward-recursion typo)::

    f_M(i,j)  = p*(i,j) [T_MM f_M(i-1,j-1) + T_GM (f_GX + f_GY)(i-1,j-1)]
    f_GX(i,j) = q [T_MG f_M(i-1,j) + T_GG f_GX(i-1,j)]
    f_GY(i,j) = q [T_MG f_M(i,j-1) + T_GG f_GY(i,j-1)]

    b_M(i,j)  = p*(i+1,j+1) T_MM b_M(i+1,j+1) + q T_MG [b_GX(i+1,j) + b_GY(i,j+1)]
    b_GX(i,j) = p*(i+1,j+1) T_GM b_M(i+1,j+1) + q T_GG b_GX(i+1,j)
    b_GY(i,j) = p*(i+1,j+1) T_GM b_M(i+1,j+1) + q T_GG b_GY(i,j+1)

Two boundary modes:

``"semiglobal"`` (pipeline default)
    The read must be fully aligned but may land anywhere inside the window:
    ``f_M(0, j) = 1`` for every ``j`` (free genome prefix) and the likelihood
    sums ``f_M(N, j) + f_GX(N, j)`` over all ``j`` (free genome suffix).
``"global"``
    The paper's literal initialisation: ``f_M(0,0) = 1``, all other border
    cells zero, terminate at ``(N, M)`` with unit end weight on every state.

Both kernels take an optional :class:`~repro.phmm.banded.BandSpec`: row ``i``
is then filled only on its in-band columns and cells outside the band keep
their zeros, which the in-band recurrences read back as "no path enters from
outside the band".  ``band=None`` is the band whose every row spans
``[0, M]`` — the same code, bit for bit.  Counters: a full fill charges its
``B*N*M`` cells per pass to ``phmm.cells_full``, a banded fill charges the
actually-computed ``B*band.n_cells()`` to ``phmm.cells_banded``; either way
the pass also charges ``phmm.forward_cells``/``phmm.backward_cells``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from repro.errors import AlignmentError
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.banded import BandSpec
from repro.phmm.model import PHMMParams

_MODES = ("semiglobal", "global")
_TINY = 1e-300


def emissions_batch(
    pwms: np.ndarray, windows: np.ndarray, params: PHMMParams
) -> np.ndarray:
    """Quality-aware match emissions ``p*`` for a batch.

    Parameters
    ----------
    pwms:
        ``(B, N, 4)`` read PWMs.
    windows:
        ``(B, M)`` genome window codes (``uint8``, N = 4 allowed).
    params:
        Model parameters (supplies the ``p[k, y]`` table).

    Returns
    -------
    ``(B, N, M)`` array with ``p*[b, i, j] = sum_k pwm[b,i,k] p[k, window[b,j]]``.
    """
    pwms = np.asarray(pwms, dtype=np.float64)
    windows = np.asarray(windows)
    if pwms.ndim != 3 or pwms.shape[2] != 4:
        raise AlignmentError(f"pwms must be (B, N, 4), got {pwms.shape}")
    if windows.ndim != 2 or windows.shape[0] != pwms.shape[0]:
        raise AlignmentError(
            f"windows must be (B, M) matching pwms batch, got {windows.shape}"
        )
    if windows.size and windows.max() > 4:
        raise AlignmentError("window codes must be in [0, 4]")
    # p[k, window[b, j]] -> (4, B, M); contract over k.
    emis_cols = params.emission[:, windows]
    return np.einsum("bik,kbj->bij", pwms, emis_cols, optimize=True)


@dataclass
class ForwardResult:
    """Scaled forward matrices plus log scales and total log-likelihood.

    ``fM/fGX/fGY`` are ``(B, N+1, M+1)`` *scaled* values: the true forward
    probability is ``fM[b, i, j] * exp(log_scale[b, i])``.  ``loglik`` is the
    per-pair total alignment log-likelihood under the chosen mode.
    """

    fM: np.ndarray
    fGX: np.ndarray
    fGY: np.ndarray
    log_scale: np.ndarray
    loglik: np.ndarray
    mode: str


@dataclass
class BackwardResult:
    """Scaled backward matrices; true value ``bM[b,i,j] * exp(log_scale[b,i])``."""

    bM: np.ndarray
    bGX: np.ndarray
    bGY: np.ndarray
    log_scale: np.ndarray
    mode: str


def _check_mode(mode: str) -> None:
    if mode not in _MODES:
        raise AlignmentError(f"mode must be one of {_MODES}, got {mode!r}")


def _check_inputs(
    pstar: np.ndarray, mode: str, band: BandSpec | None
) -> tuple[int, int, int]:
    _check_mode(mode)
    if pstar.ndim != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {pstar.shape}")
    B, N, M = pstar.shape
    if N == 0 or M == 0:
        raise AlignmentError("empty read or window")
    if band is not None and (band.n, band.m) != (N, M):
        raise AlignmentError(
            f"band is for ({band.n}, {band.m}), batch is ({N}, {M})"
        )
    return B, N, M


def _charge_cells(B: int, N: int, M: int, band: BandSpec | None) -> int:
    """DP cells one pass over the batch computes, charged to
    ``phmm.cells_full`` (no band) or ``phmm.cells_banded``."""
    if band is None:
        n_cells = B * N * M
        metrics().inc("phmm.cells_full", n_cells)
    else:
        n_cells = B * band.n_cells()
        metrics().inc("phmm.cells_banded", n_cells)
    return n_cells


def forward_batch(
    pstar: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    band: BandSpec | None = None,
) -> ForwardResult:
    """Run the scaled forward algorithm over a batch.

    ``pstar`` is the ``(B, N, M)`` emission array from
    :func:`emissions_batch`.  ``band`` restricts every DP row to its in-band
    columns (``None``: every row spans ``[0, M]``); all matrices keep their
    full ``(B, N+1, M+1)`` shape with exact zeros outside the band, so
    downstream posterior extraction is unchanged.
    """
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = _check_inputs(pstar, mode, band)
    reg = metrics()
    reg.inc("phmm.batches")
    reg.inc("phmm.pairs", B)
    reg.inc("phmm.forward_cells", _charge_cells(B, N, M, band))
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    fM = np.zeros((B, N + 1, M + 1))
    fGX = np.zeros((B, N + 1, M + 1))
    fGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    lo0, hi0 = (0, M) if band is None else band.row_bounds(0)
    if mode == "semiglobal":
        # Free genome prefix: the read may begin at any in-band column of
        # row 0.
        if lo0 <= hi0:
            fM[:, 0, lo0 : hi0 + 1] = 1.0
    elif lo0 <= 0 <= hi0:
        # Paper-literal global borders: f_M(0,0) = 1, every other border cell
        # zero (the paper's initialisation step verbatim).
        fM[:, 0, 0] = 1.0

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])
    log_tiny = np.log(_TINY)

    for i in range(1, N + 1):
        lo, hi = (0, M) if band is None else band.row_bounds(i)
        if lo > hi:
            # Band slid off the matrix: nothing reachable from here on.
            log_scale[:, i] = log_scale[:, i - 1] + log_tiny
            continue
        jlo = max(lo, 1)  # M/GY cells exist only for j >= 1
        prevM = fM[:, i - 1, :]
        prevGX = fGX[:, i - 1, :]
        prevGY = fGY[:, i - 1, :]
        rowM = fM[:, i, :]
        if jlo <= hi:
            p_row = pstar[:, i - 1, jlo - 1 : hi]  # p*(i, j), j = jlo..hi
            rowM[:, jlo : hi + 1] = p_row * (
                TMM * prevM[:, jlo - 1 : hi]
                + TGM * (prevGX[:, jlo - 1 : hi] + prevGY[:, jlo - 1 : hi])
            )
        fGX[:, i, lo : hi + 1] = q * (
            TMG * prevM[:, lo : hi + 1] + TGG * prevGX[:, lo : hi + 1]
        )
        if jlo <= hi:
            # First-order in-row recurrence, zero-initialised at the row's
            # left edge (f_GY(i, jlo-1) is out of band or column 0, hence 0).
            drive = q * TMG * rowM[:, jlo - 1 : hi]
            fGY[:, i, jlo : hi + 1] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)
        # Rescale the row (all three states share one scale so the recursion
        # stays exact); a zero row means the alignment has probability zero.
        s = np.maximum(
            np.maximum(
                rowM[:, lo : hi + 1].max(axis=1), fGX[:, i, lo : hi + 1].max(axis=1)
            ),
            fGY[:, i, lo : hi + 1].max(axis=1),
        )
        s = np.maximum(s, _TINY)
        fM[:, i, lo : hi + 1] /= s[:, None]
        fGX[:, i, lo : hi + 1] /= s[:, None]
        fGY[:, i, lo : hi + 1] /= s[:, None]
        log_scale[:, i] = log_scale[:, i - 1] + np.log(s)

    if mode == "semiglobal":
        total = fM[:, N, :].sum(axis=1) + fGX[:, N, :].sum(axis=1)
    else:
        total = fM[:, N, M] + fGX[:, N, M] + fGY[:, N, M]
    with np.errstate(divide="ignore"):
        loglik = np.log(np.maximum(total, 0.0)) + log_scale[:, N]
    result = ForwardResult(
        fM=fM, fGX=fGX, fGY=fGY, log_scale=log_scale, loglik=loglik, mode=mode
    )
    if sanitize.enabled():
        sanitize.check_forward(result)
        if band is not None:
            sanitize.check_band(fM, fGX, fGY, band=band, kind="forward")
    return result


def backward_batch(
    pstar: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    band: BandSpec | None = None,
) -> BackwardResult:
    """Run the scaled backward algorithm over a batch (same conventions)."""
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = _check_inputs(pstar, mode, band)
    metrics().inc("phmm.backward_cells", _charge_cells(B, N, M, band))
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    bM = np.zeros((B, N + 1, M + 1))
    bGX = np.zeros((B, N + 1, M + 1))
    bGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    loN, hiN = (0, M) if band is None else band.row_bounds(N)
    if mode == "semiglobal":
        if loN <= hiN:
            bM[:, N, loN : hiN + 1] = 1.0
            bGX[:, N, loN : hiN + 1] = 1.0
        # bGY stays 0 at i = N: once the read is consumed, paths that keep
        # eating genome bases through G_Y are redundant with ending earlier.
    else:
        # Paper-literal: b_M(N,M) = b_GX(N,M) = b_GY(N,M) = 1, all other
        # far-border cells zero.  Note paths that still have trailing genome
        # bases to consume at i = N get weight zero under this convention,
        # exactly as in the paper's initialisation.
        if loN <= M <= hiN:
            bM[:, N, M] = 1.0
            bGX[:, N, M] = 1.0
            bGY[:, N, M] = 1.0
        # The row-N G_Y chain (consuming trailing genome bases) is part of
        # the paper's recursion domain: b_GY(N, j) = q T_GG b_GY(N, j+1),
        # and M at (N, j < M) can finish only by entering that chain; a band
        # truncates the chain at its left edge.
        mhi = min(hiN, M - 1)
        for j in range(mhi, loN - 1, -1):
            bGY[:, N, j] = q * TGG * bGY[:, N, j + 1]
        if loN <= mhi:
            bM[:, N, loN : mhi + 1] = q * TMG * bGY[:, N, loN + 1 : mhi + 2]

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])
    log_tiny = np.log(_TINY)

    for i in range(N - 1, -1, -1):
        lo, hi = (0, M) if band is None else band.row_bounds(i)
        if lo > hi:
            log_scale[:, i] = log_scale[:, i + 1] + log_tiny
            continue
        L = hi - lo + 1
        nextM = bM[:, i + 1, :]
        nextGX = bGX[:, i + 1, :]
        # d[j] = p*(i+1, j+1) * b_M(i+1, j+1) for j = lo..hi (zero at j = M).
        d = np.zeros((B, L))
        dhi = min(hi, M - 1)
        if lo <= dhi:
            d[:, : dhi - lo + 1] = pstar[:, i, lo : dhi + 1] * nextM[:, lo + 1 : dhi + 2]
        if i > 0:
            # b_GY row i: reversed first-order recurrence driven by T_GM * d,
            # zero-initialised at the row's right edge (b_GY(i, hi+1) is out
            # of band or past column M, hence 0).
            drive = (TGM * d)[:, ::-1]
            bGY[:, i, lo : hi + 1] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)[
                :, ::-1
            ]
        # Row 0 keeps b_GY = 0 and drops the M -> G_Y term: the forward start
        # convention has f_GY(0, j) = 0 (genome bases before the first read
        # base are consumed by the start distribution, not by gap states), so
        # paths entering G_Y before consuming any read base must not count.
        # gy_next[j] = b_GY(i, j+1), zero past the row's right edge.
        gy_next = np.zeros((B, L))
        gy_next[:, : L - 1] = bGY[:, i, lo + 1 : hi + 1]
        bM[:, i, lo : hi + 1] = TMM * d + q * TMG * (nextGX[:, lo : hi + 1] + gy_next)
        bGX[:, i, lo : hi + 1] = TGM * d + q * TGG * nextGX[:, lo : hi + 1]
        t = np.maximum(
            np.maximum(
                bM[:, i, lo : hi + 1].max(axis=1), bGX[:, i, lo : hi + 1].max(axis=1)
            ),
            bGY[:, i, lo : hi + 1].max(axis=1),
        )
        t = np.maximum(t, _TINY)
        bM[:, i, lo : hi + 1] /= t[:, None]
        bGX[:, i, lo : hi + 1] /= t[:, None]
        bGY[:, i, lo : hi + 1] /= t[:, None]
        log_scale[:, i] = log_scale[:, i + 1] + np.log(t)

    result = BackwardResult(bM=bM, bGX=bGX, bGY=bGY, log_scale=log_scale, mode=mode)
    if sanitize.enabled():
        sanitize.check_backward(result)
        if band is not None:
            sanitize.check_band(bM, bGX, bGY, band=band, kind="backward")
    return result


def backward_loglik(fwd_pstar: np.ndarray, bwd: BackwardResult, mode: str) -> np.ndarray:
    """Total log-likelihood recomputed from the backward matrices.

    In semiglobal mode every path starts in ``M`` at some ``(0, j)`` with unit
    weight, so ``L = sum_j b_M(0, j)``; in global mode paths start at
    ``(0, 0)`` in ``M`` (or run through the leading-gap chain, which the
    backward matrices already account for), so ``L = b_M(0, 0) + b_GY-chain``
    — with the paper's zero-border initialisation simply ``b_M(0, 0)``.
    Used by tests as a consistency oracle against the forward likelihood.
    """
    _check_mode(mode)
    with np.errstate(divide="ignore"):
        if mode == "semiglobal":
            total = bwd.bM[:, 0, :].sum(axis=1)
        else:
            total = bwd.bM[:, 0, 0]
        return np.log(np.maximum(total, 0.0)) + bwd.log_scale[:, 0]
