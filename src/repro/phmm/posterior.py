"""Marginal alignment posteriors and per-position nucleotide contributions.

Given forward/backward results this module computes, for every genome window
position ``j``:

* ``base_mass[j, k]`` — the marginal probability mass that the read aligns
  base ``k`` (A/C/G/T) to ``y_j``: each match-cell posterior
  ``P(x_i <> y_j)`` is split over the four true-base hypotheses in
  proportion to the PWM row ``r_ik`` — the paper's quality-aware
  generalisation of "attribute the posterior to the read's base"
  (``z_kA = sum_{i: x_i = A} P(x_i <> y_j) / ...``).  Deliberately *not*
  additionally weighted by the emission table ``p[k, y_j]``: that posterior
  split would shrink every read's evidence toward the reference base —
  exactly the reference bias the paper's unbiased-calling design avoids
  (and it measurably costs LRT power at SNP sites; see
  EXPERIMENTS.md).
* ``gap_mass[j]`` — the marginal probability that ``y_j`` is deleted from the
  read (the ``G_Y`` posterior summed over read positions).  This feeds the
  z-vector's gap channel.
  The paper's gap channel is ambiguous between deletion and insertion
  (its formula writes ``x_i <> G_j`` but the calling semantics require
  deletion evidence); we take deletions and never form the ``G_X``
  (insertion) posterior.  See DESIGN.md §2.
* ``occupancy[j]`` — total probability that the alignment covers ``y_j``
  (match + deletion).  1 in the interior of the aligned footprint, < 1 at
  the soft edges, where the free genome prefix and suffix begin.

The per-read z-vector of the paper is then
``z_k(j) = base_mass[j, k]`` and ``z_gap(j) = gap_mass[j]`` under the default
``edge_policy="mass"`` (raw marginal mass, conserving total probability), or
the paper-literal ``edge_policy="paper"`` which normalises by occupancy where
occupancy exceeds a floor.

:meth:`~repro.phmm.forward_backward.LaneTile.backward` deposits these
lane-major, row by row, as the backward pass runs (DESIGN §12);
:func:`z_vectors` turns a tile's deposit into the per-read contributions.
:func:`posteriors_batch` re-enters a whole-batch
:class:`~repro.phmm.forward_backward.ForwardResult` for the tests and the
ledger's split-kernel replay.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.phmm.forward_backward import BackwardResult, ForwardResult, LaneTile
from repro.phmm.model import PHMMParams


#: ``edge_policy="paper"`` zeroes window positions whose occupancy is below
#: this floor, so that barely grazed positions are not inflated to full weight.
OCCUPANCY_FLOOR = 0.5


@dataclass
class PosteriorResult:
    """``base_mass`` ``(B, M, 4)``, ``gap_mass`` and ``occupancy`` ``(B, M)``,
    ``match_posterior`` ``(B, N, M)`` (row ``i-1``/col ``j-1`` hold cell
    ``(i, j)``) and the forward's ``loglik``; ``z``/``occ`` are the
    kernel's lane-major deposit they are views of."""

    base_mass: np.ndarray
    gap_mass: np.ndarray
    occupancy: np.ndarray
    match_posterior: np.ndarray
    loglik: np.ndarray
    z: np.ndarray
    occ: np.ndarray | None


def posteriors_batch(
    pstar: np.ndarray,
    pwms: np.ndarray,
    windows: np.ndarray,
    fwd: ForwardResult,
    bwd: BackwardResult,
    params: PHMMParams,
) -> PosteriorResult:
    """Posterior masses of a batch: the backward pass re-run on ``fwd``'s
    tile with the batch's PWMs, its deposit taken as it is (``bwd`` and
    ``windows`` are accepted for the signature's sake)."""
    B, N, M = np.shape(pstar)
    if fwd.fM.shape != (B, N + 1, M + 1):
        raise AlignmentError("forward result does not match pstar shape")
    tile = fwd.tile
    tile.backward(tile.table, np.asarray(pwms, dtype=np.float64), params)
    z = tile.z.copy()
    occ = None if tile.occ is None else tile.occ.copy()
    return PosteriorResult(
        base_mass=z[:4].transpose(2, 1, 0),
        gap_mass=z[4].T,
        occupancy=(z[4] if occ is None else occ + z[4]).T,
        match_posterior=match_posterior(tile, fwd.fM),
        loglik=fwd.loglik,
        z=z,
        occ=occ,
    )


def match_posterior(tile: LaneTile, fM: np.ndarray) -> np.ndarray:
    """``(f_M b_M) g`` per cell ``(i >= 1, j >= 1)`` of a depth ``N+1``
    tile, with the deposit's factor ``g = 2^(Ef_i + Eb_i - Ef_N) / total``."""
    N = tile.f_exp.shape[0] - 1
    total = tile.total
    alive = (total > 0.0) & (total <= np.finfo(np.float64).max)
    with np.errstate(divide="ignore"):
        inv, ie = np.frexp(np.where(alive, 1.0 / total, 0.0))
    k = tile.f_exp + tile.b_exp - tile.f_exp[N] + ie
    g = np.ldexp(inv, np.minimum(k, 1000)).T
    bM = tile.views("backward")[0]
    result: np.ndarray = fM[:, 1:, 1:] * bM[:, 1:, 1:] * g[:, 1:, None]
    return result


def z_vectors(deposit: LaneTile | PosteriorResult, edge_policy: str = "mass") -> np.ndarray:
    """Per-read z contributions ``(B, M, 5)`` in channel order (A,C,G,T,gap)
    from a lane-major deposit: its ``z`` ``(5, M, B)`` and, for
    ``"paper"``, its match occupancy ``occ`` ``(M, B)``.

    ``edge_policy="mass"`` (default) returns raw marginal masses — each
    position contributes at most 1 in total and partially covered soft edges
    contribute proportionally less.  ``edge_policy="paper"`` divides by
    occupancy (match + deletion, the paper's explicit formula) wherever it
    reaches :data:`OCCUPANCY_FLOOR`, and zeroes the positions below it.
    """
    if edge_policy not in ("mass", "paper"):
        raise AlignmentError(f"unknown edge_policy {edge_policy!r}")
    z, occ = deposit.z, deposit.occ
    zt = z.transpose(2, 1, 0)
    if edge_policy == "mass":
        return zt
    if occ is None:
        raise AlignmentError("these posteriors were computed without occupancy")
    occupancy = (occ + z[4]).T
    keep = occupancy >= OCCUPANCY_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(keep[:, :, None], zt / np.maximum(occupancy, 1e-12)[:, :, None], 0.0)
