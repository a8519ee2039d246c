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
from repro.phmm.banded import BandSpec, backward_banded, band_edge_mass, forward_banded
from repro.phmm.forward_backward import (
    backward_batch,
    emissions_batch,
    forward_batch,
)
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import PosteriorResult, posteriors_batch, z_vectors
from repro.phmm.wavefront import DTYPES, wavefront_forward_backward

#: Kernel families the alignment layer can dispatch to: the anti-diagonal
#: wavefront kernels (bitwise against the naive oracle in float64, optional
#: float32 fast path) or the row-sweep kernels (the pipeline default).
KERNELS = ("wavefront", "rowsweep")


def _check_kernel(kernel: str, dtype: str) -> None:
    if kernel not in KERNELS:
        raise AlignmentError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    if dtype not in DTYPES:
        raise AlignmentError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    if kernel == "rowsweep" and dtype != "float64":
        raise AlignmentError(
            "the rowsweep kernels are float64-only; "
            "use kernel='wavefront' for the float32 fast path"
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
    occupancy:
        ``(B, M)`` coverage probability per window position.
    posterior:
        Full :class:`PosteriorResult` for callers that need raw masses.
    """

    z: np.ndarray
    loglik: np.ndarray
    occupancy: np.ndarray
    posterior: PosteriorResult


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
    kernel:
        ``"rowsweep"`` (default) or ``"wavefront"`` — see :data:`KERNELS`.
    dtype:
        ``"float64"`` (default) or ``"float32"`` (wavefront only): run the
        DP in single precision with automatic per-pair escalation back to
        float64 (see :mod:`repro.phmm.wavefront`).
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
    if kernel == "wavefront":
        fwd, bwd, _ = wavefront_forward_backward(pstar, params, mode=mode, dtype=dtype)
    else:
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
        sanitize.check_z(
            z,
            valid,
            tol=sanitize.SUM_TOLERANCE
            if dtype == "float64"
            else sanitize.F32_SUM_TOLERANCE,
        )
    return AlignmentOutcome(
        z=z, loglik=fwd.loglik, occupancy=post.occupancy, posterior=post
    )


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

    ``kernel``/``dtype`` select the DP kernel family exactly as in
    :func:`align_batch`; escaped pairs re-run full through the *same*
    kernel, so banded-vs-full comparisons stay within one kernel family.
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

    z = np.empty((B, M, 5))
    loglik = np.empty(B)
    occupancy = np.empty((B, M))
    base_mass = np.empty((B, M, 4))
    gap_mass = np.empty((B, M))
    ins_mass = np.empty((B, M))
    match_posterior = np.empty((B, N, M))
    escaped = np.zeros(B, dtype=bool)

    if B == 0:
        # Nothing to bucket: return the (0, ...) outcome without touching
        # the kernels (np.unique on an empty centers array yields no
        # buckets, but the explicit guard keeps the degenerate path obvious
        # and regression-tested).
        posterior = PosteriorResult(
            base_mass=base_mass, gap_mass=gap_mass, ins_mass=ins_mass,
            occupancy=occupancy, match_posterior=match_posterior,
            loglik=loglik.copy(),
        )
        return AlignmentOutcome(
            z=z, loglik=loglik, occupancy=occupancy, posterior=posterior
        )

    for center in np.unique(centers):
        sel = np.nonzero(centers == center)[0]
        band = BandSpec(n=N, m=M, center=int(center), width=band_w)
        if band.n_cells() == 0:
            # The band slid entirely off the matrix for every DP row: no
            # in-band path exists, so running the kernels would sweep
            # zero-width diagonals for nothing.  The bucket's pairs are
            # dead under the band (-inf, zero mass); with the escape hatch
            # armed they go to the full kernels, which alone can say
            # whether the pairs are genuinely unalignable.
            z[sel] = 0.0
            loglik[sel] = -np.inf
            occupancy[sel] = 0.0
            base_mass[sel] = 0.0
            gap_mass[sel] = 0.0
            ins_mass[sel] = 0.0
            match_posterior[sel] = 0.0
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
        if kernel == "wavefront":
            fwd, bwd, _ = wavefront_forward_backward(
                pstar, params, mode=mode, band=band, dtype=dtype
            )
        else:
            fwd = forward_banded(pstar, params, band, mode=mode)
            bwd = backward_banded(pstar, params, band, mode=mode)
        post = posteriors_batch(pstar, sub_pwms, sub_windows, fwd, bwd, params)
        if adaptive:
            edge = band_edge_mass(post.match_posterior, band)
            metrics().observe_array("phmm.band_edge_mass", edge)
            escaped[sel] = (edge > tolerance) | ~np.isfinite(fwd.loglik)
        sub_z = z_vectors(post, edge_policy=edge_policy)
        z[sel] = sub_z
        loglik[sel] = fwd.loglik
        occupancy[sel] = post.occupancy
        base_mass[sel] = post.base_mass
        gap_mass[sel] = post.gap_mass
        ins_mass[sel] = post.ins_mass
        match_posterior[sel] = post.match_posterior

    if groups is not None and escape_min_ratio > 0.0 and escaped.any():
        groups_arr = np.asarray(groups, dtype=np.int64)
        if groups_arr.shape != (B,):
            raise AlignmentError(
                f"groups must be ({B},) matching the batch, got {groups_arr.shape}"
            )
        best = np.full(int(groups_arr.max()) + 1, -np.inf)
        np.maximum.at(best, groups_arr, loglik)
        group_best = best[groups_arr]
        with np.errstate(invalid="ignore"):
            competitive = loglik - group_best >= np.log(escape_min_ratio)
        escaped &= competitive | ~np.isfinite(group_best)

    esc = np.nonzero(escaped)[0]
    if esc.size:
        metrics().inc("phmm.band_escapes", int(esc.size))
        trace.instant("phmm.band_escape", pairs=int(esc.size))
        full = align_batch(
            pwms[esc],
            windows[esc],
            params,
            mode=mode,
            edge_policy=edge_policy,
            valid=None,
            kernel=kernel,
            dtype=dtype,
        )
        z[esc] = full.z
        loglik[esc] = full.loglik
        occupancy[esc] = full.occupancy
        base_mass[esc] = full.posterior.base_mass
        gap_mass[esc] = full.posterior.gap_mass
        ins_mass[esc] = full.posterior.ins_mass
        match_posterior[esc] = full.posterior.match_posterior

    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != windows.shape:
            raise AlignmentError(
                f"valid mask shape {valid.shape} != windows shape {windows.shape}"
            )
        z = z * valid[:, :, None]
    if sanitize.enabled():
        sanitize.check_z(
            z,
            valid,
            tol=sanitize.SUM_TOLERANCE
            if dtype == "float64"
            else sanitize.F32_SUM_TOLERANCE,
        )
    posterior = PosteriorResult(
        base_mass=base_mass,
        gap_mass=gap_mass,
        ins_mass=ins_mass,
        occupancy=occupancy,
        match_posterior=match_posterior,
        loglik=loglik.copy(),
    )
    return AlignmentOutcome(
        z=z, loglik=loglik, occupancy=occupancy, posterior=posterior
    )


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
