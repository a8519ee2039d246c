"""Steps B and C of Fig. 1, once: stack → align → deposit.

A slice of seeded candidates becomes (PWM, window) pairs, the configured
Pair-HMM evidence kernel runs over them, and weighted z mass is
scatter-added into an accumulator.  This module is the only place outside
:mod:`repro.phmm` that names the kernels and their banding knobs; the
drivers keep only what differs between them: the per-pair weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import AlignmentError
from repro.genome.fastq import ERROR_PROBABILITY, Read
from repro.index.seeding import SeedBlock
from repro.memory.base import Accumulator
from repro.observability import span
from repro.phmm.alignment import align_batch, align_batch_banded, build_windows
from repro.phmm.forward_backward import Workspace, emissions_batch
from repro.phmm.pwm import flat_pwm, pwm_from_codes
from repro.phmm.viterbi import viterbi_align
from repro.pipeline.config import PipelineConfig


class PairStack:
    """Equal-length (read, candidate) pairs awaiting one kernel call, cut
    from a slice of seeded candidates whose ``read`` indexes ``reads``."""

    def __init__(self, reads: "Sequence[Read]", seeded: SeedBlock, cfg: PipelineConfig) -> None:
        # Each read is converted to a PWM once; ``rows``: a pair's among them.
        used, self.rows = np.unique(seeded.read, return_inverse=True)
        self.reads = [reads[i] for i in used.tolist()]
        self.seeded = seeded
        # Window column the read's first base is expected at: windows are
        # cut at start - pad, so the seed diagonal lands on column pad
        # unless the seeder clamped start.
        self.centers = cfg.pad + (seeded.diagonal - seeded.start)

    def pwms(self, quality_aware: bool) -> np.ndarray:
        """The pairs' ``(B, N, 4)`` PWMs: the stack's reads converted as one
        block, a row gathered per pair, reverse-strand pairs
        reverse-complemented (both trailing axes flipped)."""
        codes = np.stack([read.codes for read in self.reads])
        if quality_aware:
            block = pwm_from_codes(
                codes, ERROR_PROBABILITY[np.stack([read.quals for read in self.reads])]
            )
        else:
            block = flat_pwm(codes)
        pwms = block[self.rows]
        reverse = self.seeded.strand != 1
        pwms[reverse] = pwms[reverse, ::-1, ::-1]
        return pwms


@dataclass
class PairEvidence:
    """Per-pair kernel output, ready to be weighted and deposited.

    ``z`` is ``(B, width, 5)`` over each pair's window, which begins
    ``cfg.pad`` columns before ``starts``; ``starts``, ``strands`` and
    ``groups`` (the pair's read) are the stack's per-pair arrays.
    """

    z: np.ndarray
    loglik: np.ndarray
    starts: np.ndarray
    strands: np.ndarray
    groups: np.ndarray

    def __getitem__(self, index: "slice | np.ndarray") -> "PairEvidence":
        return PairEvidence(*(column[index] for column in vars(self).values()))


def read_slices(groups: np.ndarray) -> "Iterator[tuple[int, slice]]":
    """Each read of a batch's ``groups`` and the slice its pairs occupy."""
    first = np.flatnonzero(np.diff(groups, prepend=-1)).tolist()
    for a, b in zip(first, [*first[1:], groups.size]):
        yield int(groups[a]), slice(a, b)


def cut_windows(
    genome_codes: np.ndarray, stack: PairStack, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """``(pwms, windows)`` of a non-empty stack: each window spans its read
    plus ``cfg.pad`` columns either side, ``N`` past the genome's ends (the
    z mass there is dropped by :func:`deposit`)."""
    with span("pwm"):
        pwms = stack.pwms(cfg.quality_aware)
    with span("windows"):
        windows, _ = build_windows(
            genome_codes, stack.seeded.start - cfg.pad, pwms.shape[1] + 2 * cfg.pad
        )
    return pwms, windows


def align_pairs(
    genome_codes: np.ndarray, stack: PairStack, cfg: PipelineConfig, workspace: Workspace
) -> PairEvidence:
    """Cut the stack's windows and run the configured evidence kernel on
    tiles cut from ``workspace`` (its caller's own)."""
    pwms, windows = cut_windows(genome_codes, stack, cfg)
    if cfg.posterior_mode == "viterbi":
        z, loglik = _viterbi_evidence(pwms, windows, cfg)
    else:
        if cfg.banding:
            outcome = align_batch_banded(
                pwms,
                windows,
                cfg.phmm,
                stack.centers,
                cfg.band_w,
                tolerance=cfg.band_tolerance,
                edge_policy=cfg.edge_policy,
                groups=stack.seeded.read,
                escape_min_ratio=cfg.min_ratio,
                workspace=workspace,
            )
        else:
            outcome = align_batch(
                pwms, windows, cfg.phmm, edge_policy=cfg.edge_policy, workspace=workspace,
            )
        z, loglik = outcome.z, outcome.loglik
    return PairEvidence(z, loglik, stack.seeded.start, stack.seeded.strand, stack.seeded.read)


def _viterbi_evidence(
    pwms: np.ndarray, windows: np.ndarray, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Single-best-alignment evidence (the ``posterior_mode="viterbi"``
    ablation): along each pair's Viterbi path, matched cells contribute
    the read's PWM row and skipped genome bases contribute gap mass."""
    B, Mw = windows.shape
    pstar = emissions_batch(pwms, windows, cfg.phmm)
    z = np.zeros((B, Mw, 5))
    loglik = np.full(B, -np.inf)
    for b in range(B):
        try:
            path = viterbi_align(pstar[b], cfg.phmm)
        except AlignmentError:
            continue
        loglik[b] = path.score
        prev_j = None
        for i, j in path.pairs:  # 1-based
            z[b, j - 1, :4] += pwms[b, i - 1]
            if prev_j is not None:
                for skipped in range(prev_j + 1, j):
                    z[b, skipped - 1, 4] += 1.0
            prev_j = j
    return z, loglik


def deposit(
    acc: Accumulator, evidence: PairEvidence, weights: np.ndarray, cfg: PipelineConfig
) -> None:
    """Add each pair's z, scaled by its weight, at its genome columns.

    One ``add`` whose rows are the batch's live cells in pair order: the
    accumulator cycles each row in turn, so every position takes one
    update per pair, in pair order, as the paper's per-pair loop does.
    """
    width = evidence.z.shape[1]
    cols = (evidence.starts - cfg.pad)[:, None] + np.arange(width)[None, :]
    live = (cols >= 0) & (cols < acc.length) & (weights[:, None] > 0)
    cell = np.flatnonzero(live)  # the live cells, in pair order
    acc.add(cols.ravel()[cell], evidence.z.reshape(-1, 5)[cell] * weights[cell // width, None])
