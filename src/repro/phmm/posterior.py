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
  the soft edges in semiglobal mode.

The per-read z-vector of the paper is then
``z_k(j) = base_mass[j, k]`` and ``z_gap(j) = gap_mass[j]`` under the default
``edge_policy="mass"`` (raw marginal mass, conserving total probability), or
the paper-literal ``edge_policy="paper"`` which normalises by occupancy where
occupancy exceeds a floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.phmm.forward_backward import (
    BackwardResult,
    ForwardResult,
)
from repro.phmm.model import PHMMParams


@dataclass
class PosteriorResult:
    """Posterior masses for a batch of alignments.

    Attributes
    ----------
    base_mass:
        ``(B, M, 4)`` per-window-position nucleotide mass.
    gap_mass:
        ``(B, M)`` deletion mass (genome base skipped by the read).
    occupancy:
        ``(B, M)`` coverage probability per position.
    match_posterior:
        ``(B, N, M)`` cell posteriors ``P(x_i <> y_j)`` (kept for ablation
        and visualisation; row ``i-1``/col ``j-1`` store cell ``(i, j)``).
    loglik:
        ``(B,)`` total alignment log-likelihood (copied from the forward).
    """

    base_mass: np.ndarray
    gap_mass: np.ndarray
    occupancy: np.ndarray
    match_posterior: np.ndarray
    loglik: np.ndarray


def posteriors_batch(
    pstar: np.ndarray,
    pwms: np.ndarray,
    windows: np.ndarray,
    fwd: ForwardResult,
    bwd: BackwardResult,
    params: PHMMParams,
) -> PosteriorResult:
    """Combine forward and backward passes into posterior masses.

    All inputs must come from the same batch; ``pstar`` is the emission array
    both passes consumed.  Pairs whose likelihood underflowed to zero
    (``loglik == -inf``) get all-zero masses.  ``windows`` and ``params``
    are part of the stable signature but unused by the default
    z-decomposition (which splits by the PWM alone — see the module
    docstring).
    """
    if fwd.mode != bwd.mode:
        raise AlignmentError(
            f"forward mode {fwd.mode!r} != backward mode {bwd.mode!r}"
        )
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = pstar.shape
    if fwd.fM.shape != (B, N + 1, M + 1):
        raise AlignmentError("forward result does not match pstar shape")

    # Per-row reconstruction factor: true(f*b)(i, .) = stored(f*b) * exp(g_i)
    # with g_i = fwd_scale_i + bwd_scale_i - loglik.  Rows on the probable
    # path have g ~ 0; dead pairs (loglik = -inf) are zeroed explicitly.
    dead = ~np.isfinite(fwd.loglik)
    safe_loglik = np.where(dead, 0.0, fwd.loglik)
    g = fwd.log_scale + bwd.log_scale - safe_loglik[:, None]  # (B, N+1)
    # Clip the exponent: rows numerically impossible to occupy can have
    # g >> 0 while the stored products underflow to 0; the product is what
    # matters and stays finite.
    factor = np.exp(np.minimum(g, 700.0))

    postM_full = fwd.fM * bwd.bM * factor[:, :, None]
    postGY_full = fwd.fGY * bwd.bGY * factor[:, :, None]
    if dead.any():
        postM_full[dead] = 0.0
        postGY_full[dead] = 0.0

    # Cell (i, j) for i = 1..N, j = 1..M.
    postM = postM_full[:, 1:, 1:]
    # G_Y consumes y_j at any read row i = 0..N.
    gap_mass = postGY_full[:, :, 1:].sum(axis=1)

    # Split each match posterior over base hypotheses by the PWM row alone
    # (see module docstring for why the emission prior is *not* applied).
    base_mass = np.einsum(
        "bij,bik->bjk", postM, np.asarray(pwms, dtype=np.float64), optimize=True
    )

    occupancy = postM.sum(axis=1) + gap_mass
    return PosteriorResult(
        base_mass=base_mass,
        gap_mass=gap_mass,
        occupancy=occupancy,
        match_posterior=postM,
        loglik=fwd.loglik.copy(),
    )


def z_vectors(
    post: PosteriorResult,
    edge_policy: str = "mass",
    occupancy_floor: float = 0.5,
) -> np.ndarray:
    """Per-read z contributions ``(B, M, 5)`` in channel order (A,C,G,T,gap).

    ``edge_policy="mass"`` (default) returns raw marginal masses — each
    position contributes at most 1 in total and partially covered soft edges
    contribute proportionally less.  ``edge_policy="paper"`` divides by
    occupancy (the paper's explicit formula) wherever occupancy exceeds
    ``occupancy_floor``, zeroing positions below the floor so that barely
    grazed positions are not inflated to full weight.
    """
    if edge_policy not in ("mass", "paper"):
        raise AlignmentError(f"unknown edge_policy {edge_policy!r}")
    z = np.concatenate([post.base_mass, post.gap_mass[:, :, None]], axis=2)
    if edge_policy == "mass":
        return z
    if not 0.0 < occupancy_floor <= 1.0:
        raise AlignmentError("occupancy_floor must be in (0, 1]")
    occ = post.occupancy
    keep = occ >= occupancy_floor
    with np.errstate(divide="ignore", invalid="ignore"):
        normed = np.where(keep[:, :, None], z / np.maximum(occ, 1e-12)[:, :, None], 0.0)
    return normed
