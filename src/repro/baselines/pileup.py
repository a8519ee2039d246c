"""Naive pileup caller: majority vote over exact-placement reads.

The floor baseline for the ablation study — no quality weighting, no
probabilistic placement, no statistical test.  Reads are placed at their
single best ungapped location (reusing the MAQ-like mapper) and each base
votes once; a SNP is called when a non-reference base holds at least
:data:`MIN_FRACTION` of at least :data:`MIN_DEPTH` votes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.maq import MIN_DEPTH, MaqConfig, MaqLikeCaller
from repro.genome.alphabet import N as CODE_N
from repro.genome.alphabet import reverse_complement
from repro.genome.fastq import Read
from repro.genome.reference import Reference

#: Share of the votes the non-reference winner needs.
MIN_FRACTION = 0.75


@dataclass(frozen=True)
class PileupSNP:
    """A majority-vote SNP."""

    pos: int
    ref_base: int
    alt_base: int
    votes: int
    depth: int


class PileupCaller:
    """Counts-only caller on top of single-best-hit placement."""

    def __init__(self, reference: Reference, seed: int = 0) -> None:
        self.reference = reference
        self._mapper = MaqLikeCaller(reference, MaqConfig(), seed=seed)
        self._counts = np.zeros((len(reference), 4), dtype=np.int32)

    def add_read(self, read: Read) -> bool:
        placed = self._mapper.map_read(read)
        if placed is None:
            return False
        start, strand, _score, _mapq = placed
        codes = read.codes if strand == 1 else reverse_complement(read.codes)
        positions = np.arange(start, start + codes.size)
        np.add.at(self._counts, positions, np.eye(4, dtype=np.int32)[codes])
        return True

    def call_snps(self) -> list[PileupSNP]:
        depth = self._counts.sum(axis=1)
        eligible = np.nonzero(depth >= MIN_DEPTH)[0]
        ref = self.reference.codes
        out: list[PileupSNP] = []
        for pos in eligible:
            r = int(ref[pos])
            if r == CODE_N:
                continue
            votes = self._counts[pos]
            best = int(votes.argmax())
            if best == r:
                continue
            if votes[best] >= MIN_FRACTION * depth[pos]:
                out.append(
                    PileupSNP(
                        pos=int(pos),
                        ref_base=r,
                        alt_base=best,
                        votes=int(votes[best]),
                        depth=int(depth[pos]),
                    )
                )
        return out

    def run(self, reads: "list[Read]") -> list[PileupSNP]:
        for read in reads:
            self.add_read(read)
        return self.call_snps()
