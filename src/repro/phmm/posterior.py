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

:class:`RowDeposit` is the only posterior arithmetic there is:
:func:`posteriors_batch` feeds it the rows of a materialised backward pass,
:mod:`repro.phmm.alignment` each row of a streamed one (DESIGN §12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.phmm.banded import BandSpec
from repro.phmm.forward_backward import BackwardResult, ForwardResult
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
        A streamed alignment leaves it, and an unread occupancy, ``None``.
    loglik:
        ``(B,)`` total alignment log-likelihood (the forward's own array).
    """

    base_mass: np.ndarray
    gap_mass: np.ndarray
    occupancy: np.ndarray | None
    match_posterior: np.ndarray | None
    loglik: np.ndarray


class RowDeposit:
    """Posterior accumulators of one batch, fed one backward row at a time.

    Lane-major like the kernels: ``z`` is ``(5, M, B)`` in channel order
    (A,C,G,T,gap).  Rows arrive in descending order, each with its in-band
    column range, and only those columns are touched (the products are exact
    zeros elsewhere).  ``occupancy``/``match`` switch on the outputs no
    default caller reads; ``band`` keeps the cells :meth:`edge_mass` sums.
    The buffers are cut once for ``(N, M, B)``; :meth:`begin` starts a batch
    in them, so equal lane tiles share one deposit.
    """

    def __init__(
        self,
        N: int,
        M: int,
        B: int,
        band: BandSpec | None = None,
        occupancy: bool = False,
        match: bool = False,
    ) -> None:
        self.pwms = np.empty((N, 4, B))
        self.z = np.empty((5, M, B))
        self.occ = np.empty((M, B)) if occupancy else None
        self.match = np.empty((N, M, B)) if match else None
        self.band = band
        self.factor = np.empty(B)
        self.pm, self.pg = np.empty((2, M, B))
        self.split = np.empty((4, M, B))

    def begin(self, pwms: np.ndarray, fwd: ForwardResult) -> None:
        """Start on a batch of the shape the buffers were cut for: its
        ``(B, N, 4)`` PWMs and forward pass; the sums restart from zero."""
        np.copyto(self.pwms, pwms.transpose(1, 2, 0))
        self.fM, self.fGY = fwd.fM.transpose(1, 2, 0), fwd.fGY.transpose(1, 2, 0)
        self.f_scale = fwd.log_scale.T
        # Dead pairs (loglik = -inf) get factor 0, hence all-zero masses.
        self.alive = np.isfinite(fwd.loglik)
        self.loglik = np.where(self.alive, fwd.loglik, 0.0)
        self.result_loglik = fwd.loglik
        for total in (self.z, self.occ, self.match):
            if total is not None:
                total.fill(0.0)
        self.edge_cells: list[np.ndarray] = []

    def add_row(
        self, i: int, lo: int, hi: int, bM: np.ndarray, bGY: np.ndarray, b_scale: np.ndarray
    ) -> None:
        """Deposit DP row ``i``: ``bM``/``bGY`` are its scaled ``(M+1, B)``
        backward rows, ``b_scale`` its ``(B,)`` backward log scale."""
        jlo = max(lo, 1)  # M/GY cells exist only for j >= 1
        n = hi - jlo + 1
        if n <= 0:
            return
        # true(f*b)(i, .) = stored(f*b) * exp(g_i), g_i = fwd_scale_i +
        # bwd_scale_i - loglik: ~0 on the probable path, >> 0 on rows
        # impossible to occupy, whose stored products underflow to 0 — hence
        # the clip; the product is what matters and stays finite.
        g = np.add(self.f_scale[i], b_scale, out=self.factor)
        g -= self.loglik
        np.exp(np.minimum(g, 700.0, out=g), out=g)
        g *= self.alive
        cols = slice(jlo - 1, hi)  # window column of cell (i, j) is j - 1
        # G_Y consumes y_j at any read row i = 0..N.
        pg = np.multiply(self.fGY[i, jlo : hi + 1], bGY[jlo : hi + 1], out=self.pg[:n])
        pg *= g
        self.z[4, cols] += pg
        if i == 0:
            return
        pm = np.multiply(self.fM[i, jlo : hi + 1], bM[jlo : hi + 1], out=self.pm[:n])
        pm *= g
        # Split over base hypotheses by the PWM row alone (module docstring).
        split = np.multiply(pm, self.pwms[i - 1][:, None, :], out=self.split[:, :n])
        self.z[:4, cols] += split
        if self.occ is not None:
            self.occ[cols] += pm
        if self.match is not None:
            self.match[i - 1, cols] = pm
        if self.band is not None:
            self.edge_cells += [
                pm[c - jlo].copy() for c in reversed(self.band.edge_columns(i))
            ]

    def edge_mass(self) -> np.ndarray:
        """Per pair, the match posterior on the band's interior edge cells
        (:meth:`~repro.phmm.banded.BandSpec.edge_columns`) over the read
        length, summed in ascending row order."""
        edge = np.zeros(self.z.shape[2])
        for cell in reversed(self.edge_cells):
            edge += cell
        return edge / float(self.pwms.shape[0])

    def result(self) -> PosteriorResult:
        gap = self.z[4]
        return PosteriorResult(
            base_mass=self.z[:4].transpose(2, 1, 0),
            gap_mass=gap.T,
            occupancy=None if self.occ is None else (self.occ + gap).T,
            match_posterior=None if self.match is None else self.match.transpose(2, 0, 1),
            loglik=self.result_loglik,
        )


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
    (``loglik == -inf``) get all-zero masses.  ``windows`` and ``params`` are
    part of the stable signature but unused: z splits by the PWM alone.
    """
    B, N, M = np.shape(pstar)
    if fwd.fM.shape != (B, N + 1, M + 1):
        raise AlignmentError("forward result does not match pstar shape")
    deposit = RowDeposit(N, M, B, occupancy=True, match=True)
    deposit.begin(np.asarray(pwms, dtype=np.float64), fwd)
    bM, bGY = bwd.bM.transpose(1, 2, 0), bwd.bGY.transpose(1, 2, 0)
    for i in range(N, -1, -1):
        deposit.add_row(i, 0, M, bM[i], bGY[i], bwd.log_scale[:, i])
    return deposit.result()


#: ``edge_policy="paper"`` zeroes window positions whose occupancy is below
#: this floor, so that barely grazed positions are not inflated to full weight.
OCCUPANCY_FLOOR = 0.5


def z_vectors(post: PosteriorResult, edge_policy: str = "mass") -> np.ndarray:
    """Per-read z contributions ``(B, M, 5)`` in channel order (A,C,G,T,gap).

    ``edge_policy="mass"`` (default) returns raw marginal masses — each
    position contributes at most 1 in total and partially covered soft edges
    contribute proportionally less.  ``edge_policy="paper"`` divides by
    occupancy (the paper's explicit formula) wherever occupancy reaches
    :data:`OCCUPANCY_FLOOR`, and zeroes the positions below it.
    """
    if edge_policy not in ("mass", "paper"):
        raise AlignmentError(f"unknown edge_policy {edge_policy!r}")
    z = np.concatenate([post.base_mass, post.gap_mass[:, :, None]], axis=2)
    if edge_policy == "mass":
        return z
    occ = post.occupancy
    if occ is None:
        raise AlignmentError("these posteriors were computed without occupancy")
    keep = occ >= OCCUPANCY_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        normed = np.where(keep[:, :, None], z / np.maximum(occ, 1e-12)[:, :, None], 0.0)
    return normed
