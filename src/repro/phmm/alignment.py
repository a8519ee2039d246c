"""High-level alignment API: a batch of (read, window) pairs.

The pipeline aligns in batches: all (read, candidate-window) pairs of equal
read length N and window length M are stacked and pushed through one
forward/backward pass.  Windows clipped by genome edges are padded with ``N``
codes (uniform emission) and a validity mask marks pad columns so their
posterior mass is never accumulated into the genome.

A batch runs *streamed*, in equal lane tiles of bounded width cut from the
caller's workspace: per tile the forward state is stored once, and the
compiled backward pass runs on a two-row ring, depositing each row into the
tile's z the moment it exists (:class:`~repro.phmm.forward_backward.LaneTile`).
Emission, backward and posterior tensors are never materialised, and
per-pair cost and peak memory do not depend on the batch size (DESIGN §12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.observability.trace as trace
from repro.errors import AlignmentError
from repro.genome.alphabet import N as CODE_N
from repro.observability import Laps
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.banded import BandSpec
from repro.phmm.forward_backward import (
    LaneTile,
    Workspace,
    _check_kernel,
    charge_pass,
    check_pairs,
    check_shape,
    emission_table,
)
from repro.phmm.model import PHMMParams
from repro.phmm.posterior import z_vectors

#: Widest lane tile, from the sweep in EXPERIMENTS.md ("Compiled lane
#: kernel"): on 62 x 78 pairs the compiled kernels cost the same per pair
#: from 32 to 256 lanes, within run-to-run spread, and 20-30% more on one
#: 512-lane tile.  The pool sizes its chunks from it too
#: (:func:`repro.pipeline.mp_backend.chunk_count`).
LANE_TILE = 256

#: The child spans a kernel call records under the open span (``align`` in
#: the pipeline): the emission table (with the tile cut), the forward pass,
#: the backward pass with its posterior deposit fused in
#: (:meth:`~repro.phmm.forward_backward.LaneTile.backward`) and the z
#: reduction.
LAYERS = ("emissions", "forward", "backward", "zvec")


@dataclass
class AlignmentOutcome:
    """Result of aligning a batch of (read, window) pairs: ``z`` is the
    ``(B, M, 5)`` per-pair z contributions in channel order (A,C,G,T,gap),
    ``loglik`` the ``(B,)`` total alignment log-likelihoods (mapping scores)."""

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


def _check_batch(
    pwms: np.ndarray,
    windows: np.ndarray,
    valid: np.ndarray | None,
    edge_policy: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Everything that can be wrong with a batch, before any side effect."""
    pwms, windows = check_pairs(pwms, windows)
    check_shape(pwms.shape[1], windows.shape[1], None)
    if edge_policy not in ("mass", "paper"):
        raise AlignmentError(f"unknown edge_policy {edge_policy!r}")
    if valid is not None:
        valid = np.asarray(valid, dtype=bool)
        if valid.shape != windows.shape:
            raise AlignmentError(f"valid mask shape {valid.shape} != windows shape {windows.shape}")
    return pwms, windows, valid


def _align_streamed(
    pwms: np.ndarray,
    windows: np.ndarray,
    params: PHMMParams,
    edge_policy: str,
    band: BandSpec | None,
    want_edge: bool = False,
    workspace: Workspace | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """``(z, loglik, band-edge mass)`` of a validated batch, counted as one
    forward and one backward pass (a tile is not a batch), its layers timed
    per tile as children of the open span (:data:`LAYERS`)."""
    laps = Laps(*LAYERS)
    B, N, M = pwms.shape[0], pwms.shape[1], windows.shape[1]
    charge_pass("forward", B, N, M, band)
    charge_pass("backward", B, N, M, band)
    z = np.empty((B, M, 5))
    loglik = np.empty(B)
    edge = np.empty(B) if want_edge else None
    # Equal tiles: one pair over the width is two halves, not a straggler.
    n_tiles = max(1, -(-B // LANE_TILE))
    step = max(1, -(-B // n_tiles))
    if B:
        # Lanes per tile: `B // step` full tiles and at most one narrower.
        reg = metrics()
        reg.observe("phmm.tile_lanes", float(step), count=B // step)
        if B % step:
            reg.observe("phmm.tile_lanes", float(B % step))
    lanes = 0  # width the tile below was cut for
    tiles = range(0, B, step)
    for start in tiles:
        tile = slice(start, start + step)
        if min(step, B - start) != lanes:
            # Once per call, and once more for a narrower last tile; under
            # the sanitizer the backward pass is kept whole for its check.
            lanes = min(step, B - start)
            work = LaneTile(
                N, M, lanes, band, depth=N + 1 if sanitize.enabled() else 2,
                occupancy=edge_policy == "paper", edge=want_edge, workspace=workspace,
            )
        table = emission_table(pwms[tile], params)
        if sanitize.enabled():
            sanitize.check_emissions(table)
        work.load(table, windows[tile])
        laps.lap("emissions")
        loglik[tile] = work.forward(work.table, params)
        if sanitize.enabled():
            work.check("forward", loglik[tile])
        laps.lap("forward")
        work.backward(work.table, pwms[tile], params)
        if sanitize.enabled():
            work.check("backward")
        laps.lap("backward")
        z[tile] = z_vectors(work, edge_policy=edge_policy)
        if edge is not None:
            edge[tile] = work.edge
        laps.lap("zvec")
    laps.record(count=len(tiles))
    return z, loglik, edge


def align_batch(
    pwms: np.ndarray,
    windows: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    edge_policy: str = "mass",
    valid: np.ndarray | None = None,
    kernel: str = "rowsweep",
    dtype: str = "float64",
    workspace: Workspace | None = None,
) -> AlignmentOutcome:
    """Align a batch of equal-shape (PWM, window) pairs.

    ``pwms`` are ``(B, N, 4)`` read PWMs, ``windows`` ``(B, M)`` window codes;
    z mass on False columns of the optional ``(B, M)`` bool mask ``valid`` is
    zeroed (genome-edge pad columns).  ``mode``/``kernel``/``dtype`` are
    single-valued (``"semiglobal"``, ``"rowsweep"``, ``"float64"``); see
    :func:`~repro.phmm.forward_backward._check_kernel`.  Tiles are cut from
    ``workspace`` (private ones by default).
    """
    _check_kernel(mode, kernel, dtype)
    pwms, windows, valid = _check_batch(pwms, windows, valid, edge_policy)
    # Per-pair DP work distribution (full kernels fill every N*M cell).
    if pwms.shape[0]:
        metrics().observe(
            "phmm.pair_cells", float(pwms.shape[1] * windows.shape[1]),
            count=int(pwms.shape[0]),
        )
    z, loglik, _ = _align_streamed(pwms, windows, params, edge_policy, None, workspace=workspace)
    if valid is not None:
        z *= valid[:, :, None]
    if sanitize.enabled():
        sanitize.check_z(z, valid)
    return AlignmentOutcome(z=z, loglik=loglik)


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
    workspace: Workspace | None = None,
) -> AlignmentOutcome:
    """Banded alignment of a batch, with an optional full-kernel escape hatch.

    Pairs are bucketed by their seed-diagonal ``center`` (window column the
    read's first base is expected at) so each bucket runs one vectorized
    banded fill; in the pipeline all candidates of a batch share one center,
    so bucketing is usually a single pass.  With ``adaptive=True`` any pair
    whose posterior band-edge mass exceeds ``tolerance`` — or whose banded
    likelihood collapsed to ``-inf`` — is re-run through the full kernels
    (counted under ``phmm.band_escapes``), so evidence stays faithful where
    the band assumption breaks.  ``adaptive=False`` trusts the band
    unconditionally, which isolates the banded fill.

    ``groups``/``escape_min_ratio`` prune pointless escapes: when the per-pair
    read grouping is supplied, a pair only escapes if its banded likelihood is
    within ``escape_min_ratio`` of its group's best (the same ratio the
    multiread weighting applies downstream) — candidates that would receive
    zero mapping weight regardless are not worth a full re-fill.  Groups whose
    *best* banded likelihood is ``-inf`` escape wholesale: the band saw
    nothing, so the full kernels arbitrate.

    ``mode``/``kernel``/``dtype``/``workspace`` are as in :func:`align_batch`.
    """
    _check_kernel(mode, kernel, dtype)
    pwms, windows, valid = _check_batch(pwms, windows, valid, edge_policy)
    centers = np.asarray(centers, dtype=np.int64)
    B, N, M = pwms.shape[0], pwms.shape[1], windows.shape[1]
    if centers.shape != (B,):
        raise AlignmentError(f"centers must be ({B},) matching the batch, got {centers.shape}")
    if band_w < 1:
        raise AlignmentError(f"band_w must be >= 1, got {band_w}")
    if not 0.0 <= tolerance < 1.0:
        raise AlignmentError(f"tolerance must be in [0, 1), got {tolerance}")
    if groups is not None:
        groups = np.asarray(groups, dtype=np.int64)
        if groups.shape != (B,):
            raise AlignmentError(f"groups must be ({B},) matching the batch, got {groups.shape}")

    z = np.empty((B, M, 5))
    loglik = np.empty(B)
    escaped = np.zeros(B, dtype=bool)

    # An empty batch has no buckets (np.unique of no centers) and no escapes.
    buckets = np.unique(centers)
    for center in buckets:
        # The pipeline's usual batch is one bucket: its arrays as they are.
        sel = slice(None) if buckets.size == 1 else np.nonzero(centers == center)[0]
        band = BandSpec(n=N, m=M, center=int(center), width=band_w)
        cells = band.n_cells()
        if cells == 0:
            # The band slid entirely off the matrix for every DP row: no
            # in-band path exists, so the bucket's pairs are dead under the
            # band (-inf, zero mass) without running the kernels; with the
            # escape hatch armed they go to the unbanded fill, which alone
            # can say whether the pairs are genuinely unalignable.
            z[sel] = 0.0
            loglik[sel] = -np.inf
            escaped[sel] = adaptive
            continue
        pairs = int(np.count_nonzero(centers == center))
        metrics().observe("phmm.pair_cells", float(cells), count=pairs)
        z[sel], loglik[sel], edge = _align_streamed(
            pwms[sel], windows[sel], params, edge_policy, band, want_edge=adaptive,
            workspace=workspace,
        )
        if edge is not None:
            metrics().observe_array("phmm.band_edge_mass", edge)
            escaped[sel] = (edge > tolerance) | ~np.isfinite(loglik[sel])

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
            pwms[esc], windows[esc], params, edge_policy=edge_policy, workspace=workspace
        )
        z[esc] = full.z
        loglik[esc] = full.loglik

    if valid is not None:
        z *= valid[:, :, None]
    if sanitize.enabled():
        sanitize.check_z(z, valid)
    return AlignmentOutcome(z=z, loglik=loglik)

