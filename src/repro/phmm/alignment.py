"""High-level alignment API: one read, or a batch of (read, window) pairs.

The pipeline aligns in batches: all (read, candidate-window) pairs of equal
read length N and window length M are stacked and pushed through one
forward/backward pass.  Windows clipped by genome edges are padded with ``N``
codes (uniform emission) and a validity mask marks pad columns so their
posterior mass is never accumulated into the genome.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.observability.trace as trace
from repro.errors import AlignmentError
from repro.genome.alphabet import N as CODE_N
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.banded import BandSpec, band_edge_mass
from repro.phmm.forward_backward import (
    backward_batch,
    emissions_batch,
    forward_batch,
)
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import posteriors_batch, z_vectors


def _check_kernel(kernel: str, dtype: str) -> None:
    # ledger/replay.py is the sole reader of the kernel=/dtype= keywords; they
    # go when the ledger stops passing them.
    if (kernel, dtype) != ("rowsweep", "float64"):
        raise AlignmentError(
            f"the only kernel is ('rowsweep', 'float64'), got {(kernel, dtype)!r}"
        )


@dataclass
class AlignmentOutcome:
    """Result of aligning a batch of (read, window) pairs.

    Attributes
    ----------
    z:
        ``(B, M, 5)`` per-pair z contributions in channel order (A,C,G,T,gap).
    loglik:
        ``(B,)`` total alignment log-likelihoods (the mapping scores).
    """

    z: np.ndarray
    loglik: np.ndarray


def build_windows(
    genome_codes: np.ndarray,
    starts: np.ndarray,
    width: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Extract fixed-width windows, padding beyond genome edges with N.

    Returns ``(windows, valid)`` of shapes ``(B, width)``: ``windows`` holds
    codes (pad columns are ``N``), ``valid`` is False on pad columns.  The
    genome position of window column ``j`` of pair ``b`` is
    ``starts[b] + j`` (possibly outside ``[0, len(genome))`` on pad columns).
    """
    genome_codes = np.asarray(genome_codes)
    starts = np.asarray(starts, dtype=np.int64)
    if width <= 0:
        raise AlignmentError(f"window width must be positive, got {width}")
    if starts.ndim != 1:
        raise AlignmentError("starts must be 1-D")
    glen = genome_codes.size
    cols = starts[:, None] + np.arange(width)[None, :]
    valid = (cols >= 0) & (cols < glen)
    clipped = np.clip(cols, 0, glen - 1)
    windows = genome_codes[clipped].astype(np.uint8)
    windows[~valid] = CODE_N
    return windows, valid


def align_batch(
    pwms: np.ndarray,
    windows: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    edge_policy: str = "mass",
    valid: np.ndarray | None = None,
    kernel: str = "rowsweep",
    dtype: str = "float64",
) -> AlignmentOutcome:
    """Align a batch of equal-shape (PWM, window) pairs.

    Parameters
    ----------
    pwms:
        ``(B, N, 4)`` read PWMs.
    windows:
        ``(B, M)`` window codes.
    valid:
        Optional ``(B, M)`` bool mask; z mass on False columns is zeroed
        (used for genome-edge pad columns).
    kernel, dtype:
        Single-valued (``"rowsweep"``, ``"float64"``); see
        :func:`_check_kernel`.
    """
    _check_kernel(kernel, dtype)
    pwms = np.asarray(pwms, dtype=np.float64)
    windows = np.asarray(windows)
    # Per-pair DP work distribution (full kernels fill every N*M cell).
    if pwms.shape[0]:
        metrics().observe(
            "phmm.pair_cells", float(pwms.shape[1] * windows.shape[1]),
            count=int(pwms.shape[0]),
        )
    pstar = emissions_batch(pwms, windows, params)
    if sanitize.enabled():
        sanitize.check_emissions(pstar)
    fwd = forward_batch(pstar, params, mode=mode)
    bwd = backward_batch(pstar, params, mode=mode)
    post = posteriors_batch(pstar, pwms, windows, fwd, bwd, params)
    z = z_vectors(post, edge_policy=edge_policy)
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != windows.shape:
            raise AlignmentError(
                f"valid mask shape {valid.shape} != windows shape {windows.shape}"
            )
        z = z * valid[:, :, None]
    if sanitize.enabled():
        sanitize.check_z(z, valid)
    return AlignmentOutcome(z=z, loglik=fwd.loglik)


def align_batch_banded(
    pwms: np.ndarray,
    windows: np.ndarray,
    params: PHMMParams,
    centers: np.ndarray,
    band_w: int,
    tolerance: float = 1e-4,
    adaptive: bool = True,
    mode: str = "semiglobal",
    edge_policy: str = "mass",
    valid: np.ndarray | None = None,
    groups: np.ndarray | None = None,
    escape_min_ratio: float = 0.0,
    kernel: str = "rowsweep",
    dtype: str = "float64",
) -> AlignmentOutcome:
    """Banded alignment of a batch, with an optional full-kernel escape hatch.

    Pairs are bucketed by their seed-diagonal ``center`` (window column the
    read's first base is expected at) so each bucket runs one vectorized
    banded fill; in the pipeline all candidates of a batch share one center,
    so bucketing is usually a single pass.  With ``adaptive=True`` any pair
    whose posterior band-edge mass exceeds ``tolerance`` — or whose banded
    likelihood collapsed to ``-inf`` — is re-run through the full kernels
    (counted under ``phmm.band_escapes``), so evidence stays faithful where
    the band assumption breaks.  ``adaptive=False`` (band_mode="fixed")
    trusts the band unconditionally.

    ``groups``/``escape_min_ratio`` prune pointless escapes: when the per-pair
    read grouping is supplied, a pair only escapes if its banded likelihood is
    within ``escape_min_ratio`` of its group's best (the same ratio the
    multiread weighting applies downstream) — candidates that would receive
    zero mapping weight regardless are not worth a full re-fill.  Groups whose
    *best* banded likelihood is ``-inf`` escape wholesale: the band saw
    nothing, so the full kernels arbitrate.

    ``kernel``/``dtype`` are single-valued; see :func:`_check_kernel`.
    """
    _check_kernel(kernel, dtype)
    pwms = np.asarray(pwms, dtype=np.float64)
    windows = np.asarray(windows)
    centers = np.asarray(centers, dtype=np.int64)
    if pwms.ndim != 3:
        raise AlignmentError(f"pwms must be (B, N, 4), got {pwms.shape}")
    B, N = pwms.shape[0], pwms.shape[1]
    if windows.ndim != 2 or windows.shape[0] != B:
        raise AlignmentError(
            f"windows must be (B, M) matching pwms batch, got {windows.shape}"
        )
    M = windows.shape[1]
    if centers.shape != (B,):
        raise AlignmentError(
            f"centers must be ({B},) matching the batch, got {centers.shape}"
        )
    if band_w < 1:
        raise AlignmentError(f"band_w must be >= 1, got {band_w}")
    if not 0.0 <= tolerance < 1.0:
        raise AlignmentError(f"tolerance must be in [0, 1), got {tolerance}")
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (B,):
            raise AlignmentError(
                f"groups must be ({B},) matching the batch, got {groups.shape}"
            )
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != windows.shape:
            raise AlignmentError(
                f"valid mask shape {valid.shape} != windows shape {windows.shape}"
            )

    z = np.empty((B, M, 5))
    loglik = np.empty(B)
    escaped = np.zeros(B, dtype=bool)

    # An empty batch has no buckets (np.unique of no centers) and no escapes.
    for center in np.unique(centers):
        sel = np.nonzero(centers == center)[0]
        band = BandSpec(n=N, m=M, center=int(center), width=band_w)
        if band.n_cells() == 0:
            # The band slid entirely off the matrix for every DP row: no
            # in-band path exists, so the bucket's pairs are dead under the
            # band (-inf, zero mass) without running the kernels; with the
            # escape hatch armed they go to the unbanded fill, which alone
            # can say whether the pairs are genuinely unalignable.
            z[sel] = 0.0
            loglik[sel] = -np.inf
            escaped[sel] = adaptive
            continue
        sub_pwms = pwms[sel]
        sub_windows = windows[sel]
        pstar = emissions_batch(sub_pwms, sub_windows, params)
        if sanitize.enabled():
            sanitize.check_emissions(pstar)
        metrics().observe(
            "phmm.pair_cells", float(band.n_cells()), count=int(sel.size)
        )
        fwd = forward_batch(pstar, params, mode=mode, band=band)
        bwd = backward_batch(pstar, params, mode=mode, band=band)
        post = posteriors_batch(pstar, sub_pwms, sub_windows, fwd, bwd, params)
        if adaptive:
            edge = band_edge_mass(post.match_posterior, band)
            metrics().observe_array("phmm.band_edge_mass", edge)
            escaped[sel] = (edge > tolerance) | ~np.isfinite(fwd.loglik)
        z[sel] = z_vectors(post, edge_policy=edge_policy)
        loglik[sel] = fwd.loglik

    if groups is not None and escape_min_ratio > 0.0 and escaped.any():
        best = np.full(int(groups.max()) + 1, -np.inf)
        np.maximum.at(best, groups, loglik)
        group_best = best[groups]
        with np.errstate(invalid="ignore"):
            competitive = loglik - group_best >= np.log(escape_min_ratio)
        escaped &= competitive | ~np.isfinite(group_best)

    esc = np.nonzero(escaped)[0]
    if esc.size:
        metrics().inc("phmm.band_escapes", int(esc.size))
        trace.instant("phmm.band_escape", pairs=int(esc.size))
        full = align_batch(
            pwms[esc], windows[esc], params, mode=mode, edge_policy=edge_policy
        )
        z[esc] = full.z
        loglik[esc] = full.loglik

    if valid is not None:
        z = z * valid[:, :, None]
    if sanitize.enabled():
        sanitize.check_z(z, valid)
    return AlignmentOutcome(z=z, loglik=loglik)


def align_read(
    pwm: np.ndarray,
    window: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    edge_policy: str = "mass",
) -> AlignmentOutcome:
    """Convenience single-pair wrapper around :func:`align_batch`.

    Returns the same batched structure with ``B = 1``.
    """
    pwm = np.asarray(pwm, dtype=np.float64)
    window = np.asarray(window)
    if pwm.ndim != 2:
        raise AlignmentError(f"pwm must be (N, 4), got {pwm.shape}")
    if window.ndim != 1:
        raise AlignmentError(f"window must be 1-D, got {window.shape}")
    return align_batch(pwm[None], window[None], params, mode=mode, edge_policy=edge_policy)
