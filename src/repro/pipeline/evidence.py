"""Steps B and C of Fig. 1, once: stack → align → deposit.

Every driver — the serial pipeline, the genome-partitioned cluster
program, the paired pipeline and the SAM writer — turns a read's seed
candidates into (PWM, window) pairs, runs the configured Pair-HMM evidence
kernel over them and scatter-adds weighted z mass into an accumulator.
This module is the only place outside :mod:`repro.phmm` that names the
kernels and their banding knobs; the drivers keep only what differs between
them, which is how the per-pair weights are computed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.errors import AlignmentError
from repro.genome.fastq import ERROR_PROBABILITY, Read
from repro.index.seeding import CandidateRegion
from repro.memory.base import Accumulator
from repro.phmm.alignment import align_batch, align_batch_banded, build_windows
from repro.phmm.forward_backward import emissions_batch
from repro.phmm.pwm import flat_pwm, pwm_from_codes
from repro.phmm.viterbi import viterbi_align
from repro.pipeline.config import PipelineConfig


class PairStack:
    """Equal-length (read, candidate) pairs awaiting one kernel call."""

    def __init__(self) -> None:
        self.reads: list[Read] = []
        self.rows: list[int] = []  # per pair: its read's index in ``reads``
        self.starts: list[int] = []
        self.strands: list[int] = []
        self.centers: list[int] = []
        self.groups: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def add_read(
        self,
        read: Read,
        candidates: "Sequence[CandidateRegion]",
        cfg: PipelineConfig,
        group: int,
    ) -> None:
        """Append one pair per candidate; ``group`` ties them to their read."""
        row = len(self.reads)
        self.reads.append(read)
        for cand in candidates:
            self.rows.append(row)
            self.starts.append(cand.start)
            self.strands.append(cand.strand)
            # Window column the read's first base is expected at: windows
            # are cut at start - pad, so the seed diagonal lands on column
            # pad unless the seeder clamped start.
            self.centers.append(cfg.pad + (cand.band_diagonal - cand.start))
            self.groups.append(group)

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
        reverse = np.asarray(self.strands) != 1
        pwms[reverse] = pwms[reverse, ::-1, ::-1]
        return pwms


@dataclass
class PairEvidence:
    """Per-pair kernel output, ready to be weighted and deposited.

    ``z`` is ``(B, width, 5)``, ``cols`` the genome position of every window
    column, ``valid`` False on columns past a genome edge; ``starts``,
    ``strands`` and ``groups`` are the stack's per-pair lists as arrays.
    """

    z: np.ndarray
    loglik: np.ndarray
    cols: np.ndarray
    valid: np.ndarray
    starts: np.ndarray
    strands: np.ndarray
    groups: np.ndarray


def cut_windows(
    genome_codes: np.ndarray, stack: PairStack, cfg: PipelineConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(pwms, starts, windows, valid)`` of a non-empty stack: each window
    spans its read plus ``cfg.pad`` columns either side."""
    pwms = stack.pwms(cfg.quality_aware)
    starts = np.asarray(stack.starts, dtype=np.int64)
    windows, valid = build_windows(
        genome_codes, starts - cfg.pad, pwms.shape[1] + 2 * cfg.pad
    )
    return pwms, starts, windows, valid


def align_pairs(
    genome_codes: np.ndarray, stack: PairStack, cfg: PipelineConfig
) -> PairEvidence:
    """Cut the stack's windows and run the configured evidence kernel."""
    pwms, starts, windows, valid = cut_windows(genome_codes, stack, cfg)
    groups = np.asarray(stack.groups, dtype=np.int64)
    if cfg.posterior_mode == "viterbi":
        z, loglik = _viterbi_evidence(pwms, windows, valid, cfg)
    else:
        if cfg.banding:
            outcome = align_batch_banded(
                pwms,
                windows,
                cfg.phmm,
                np.asarray(stack.centers, dtype=np.int64),
                cfg.band_w,
                tolerance=cfg.band_tolerance,
                adaptive=cfg.band_mode == "adaptive",
                mode=cfg.alignment_mode,
                edge_policy=cfg.edge_policy,
                valid=valid,
                groups=groups,
                escape_min_ratio=cfg.min_ratio,
            )
        else:
            outcome = align_batch(
                pwms,
                windows,
                cfg.phmm,
                mode=cfg.alignment_mode,
                edge_policy=cfg.edge_policy,
                valid=valid,
            )
        z, loglik = outcome.z, outcome.loglik
    cols = (starts - cfg.pad)[:, None] + np.arange(windows.shape[1])[None, :]
    return PairEvidence(
        z=z,
        loglik=loglik,
        cols=cols,
        valid=valid,
        starts=starts,
        strands=np.asarray(stack.strands),
        groups=groups,
    )


def _viterbi_evidence(
    pwms: np.ndarray, windows: np.ndarray, valid: np.ndarray, cfg: PipelineConfig
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
            path = viterbi_align(pstar[b], cfg.phmm, mode=cfg.alignment_mode)
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
    z *= valid[:, :, None]
    return z, loglik


def deposit(
    acc: Accumulator, evidence: PairEvidence, weights: np.ndarray, cfg: PipelineConfig
) -> None:
    """Add each pair's z, scaled by its weight, at its genome columns."""
    zw = evidence.z * weights[:, None, None]
    live = evidence.valid & (weights[:, None] > 0)
    if cfg.accumulator.upper() == "NORM":
        # Dense accumulation is linear: one flattened scatter-add.
        mask = live.ravel()
        acc.add(evidence.cols.ravel()[mask], zw.reshape(-1, 5)[mask])
    else:
        # Discretised modes quantise per add(); keep per-pair calls so the
        # online-requantisation dynamics stay per-read, as the paper
        # analyses.
        for b in range(zw.shape[0]):
            m = live[b]
            if m.any():
                acc.add(evidence.cols[b][m], zw[b][m])
