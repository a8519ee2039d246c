"""MAQ-like baseline mapper/SNP caller.

This is the comparator for Table I.  It reproduces the *algorithmic
skeleton* of MAQ (Li, Ruan & Durbin 2008) — specifically the design choices
the paper criticises:

* **single best alignment**: each read is placed at exactly one location
  (the ungapped alignment with the smallest sum of mismatched base
  qualities);
* **random multiread assignment**: ties are broken by a seeded RNG;
* **mapping-quality filter**: reads whose best location is not clearly
  better than the runner-up get low mapping quality and are discarded below
  a cutoff;
* **fixed consensus cutoffs**: the consensus caller uses an ad-hoc
  phred-scaled likelihood-ratio cutoff rather than a background-calibrated
  test.

The seeding stage reuses the same k-mer index as GNUMAP-SNP so the
comparison isolates the alignment/calling philosophy, not the seed finding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PipelineError
from repro.genome.alphabet import N as CODE_N
from repro.genome.alphabet import reverse_complement
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.index.seeding import Seeder
from repro.util.rng import resolve_rng


@dataclass(frozen=True)
class MaqSNP:
    """A SNP reported by the baseline."""

    pos: int
    ref_base: int
    alt_base: int
    quality: float
    depth: int


#: Index mer-size the baseline seeds with (GNUMAP-SNP's default ``k``).
K = 10
#: Discard alignments whose summed mismatch quality exceeds this (MAQ's
#: ``-e``, default 70).
MAX_MISMATCH_SUM = 70
#: Reads mapping with quality below this are dropped (MAQ default 0, but SNP
#: calling conventionally filters at ~10; the paper's critique is precisely
#: that such reads vanish).
MIN_MAPPING_QUALITY = 10
#: Minimum covering reads to attempt a call.
MIN_DEPTH = 3
#: Per-base quality cap in the consensus model (MAQ caps correlated errors
#: similarly).
MAX_QUALITY = 30


@dataclass
class MaqConfig:
    """Baseline knobs (the fixed ones, shadowing MAQ's defaults, are the
    module constants above).

    Attributes
    ----------
    snp_quality_cutoff:
        Phred-scaled consensus-vs-reference likelihood ratio required to
        report a SNP (an *ad hoc* fixed cutoff — the paper's point).
    """

    snp_quality_cutoff: float = 20.0


class MaqLikeCaller:
    """Single-best-hit mapper + fixed-cutoff consensus SNP caller."""

    def __init__(
        self,
        reference: Reference,
        config: MaqConfig | None = None,
        seed: "int | np.random.Generator | None" = 0,
    ) -> None:
        self.reference = reference
        self.config = config or MaqConfig()
        self.index = GenomeIndex(reference, k=K)
        self.seeder = Seeder(self.index)
        self._rng = resolve_rng(seed)
        # Per-position per-base accumulated log-likelihood terms plus depth.
        self._loglik = np.zeros((len(reference), 4))
        self._depth = np.zeros(len(reference), dtype=np.int32)
        self.n_mapped = 0
        self.n_discarded = 0

    # -- mapping ---------------------------------------------------------------
    def _ungapped_score(self, codes: np.ndarray, quals: np.ndarray, start: int) -> int | None:
        """Sum of mismatch qualities for an ungapped placement, or None if
        the read falls off the genome."""
        glen = len(self.reference)
        if start < 0 or start + codes.size > glen:
            return None
        window = self.reference.codes[start : start + codes.size]
        mism = (window != codes) | (window == CODE_N)
        return int(quals[mism].sum())

    def map_read(self, read: Read) -> "tuple[int, int, int, int] | None":
        """Best single placement: ``(start, strand, score, mapping_quality)``.

        Returns None for unmapped or filtered reads.  Ties are broken
        randomly (the multiread behaviour the paper criticises).
        """
        rc_codes = reverse_complement(read.codes)
        rc_quals = read.quals[::-1]
        placements: list[tuple[int, int, int]] = []  # (score, start, strand)
        for cand in self.seeder.candidates(read):
            codes, quals = (
                (read.codes, read.quals) if cand.strand == 1 else (rc_codes, rc_quals)
            )
            score = self._ungapped_score(codes, quals, cand.start)
            if score is not None and score <= MAX_MISMATCH_SUM:
                placements.append((score, cand.start, cand.strand))
        if not placements:
            return None
        placements.sort(key=lambda p: p[0])
        best_score = placements[0][0]
        ties = [p for p in placements if p[0] == best_score]
        chosen = ties[int(self._rng.integers(0, len(ties)))]
        if len(ties) > 1:
            mapq = 0  # ambiguous: MAQ assigns quality 0 to random placements
        elif len(placements) == 1:
            mapq = 60
        else:
            mapq = min(60, placements[1][0] - best_score)
        return chosen[1], chosen[2], best_score, mapq

    def add_read(self, read: Read) -> bool:
        """Map one read and, if it survives the filters, pile it up."""
        placed = self.map_read(read)
        if placed is None:
            self.n_discarded += 1
            return False
        start, strand, _score, mapq = placed
        if mapq < MIN_MAPPING_QUALITY:
            self.n_discarded += 1
            return False
        codes = read.codes if strand == 1 else reverse_complement(read.codes)
        quals = read.quals if strand == 1 else read.quals[::-1]
        self._pileup(start, codes, quals)
        self.n_mapped += 1
        return True

    def _pileup(self, start: int, codes: np.ndarray, quals: np.ndarray) -> None:
        n = codes.size
        positions = np.arange(start, start + n)
        q = np.minimum(quals, MAX_QUALITY).astype(np.float64)
        err = np.power(10.0, -q / 10.0)
        # log P(obs | true=b): (1 - e) when b == obs else e/3.
        terms = np.tile(np.log(err / 3.0)[:, None], (1, 4))
        terms[np.arange(n), codes] = np.log1p(-err)
        np.add.at(self._loglik, positions, terms)
        np.add.at(self._depth, positions, 1)

    # -- calling ---------------------------------------------------------------
    def call_snps(self) -> list[MaqSNP]:
        """Consensus calls that differ from the reference above the cutoff."""
        ref = self.reference.codes
        eligible = np.nonzero(self._depth >= MIN_DEPTH)[0]
        out: list[MaqSNP] = []
        for pos in eligible:
            r = int(ref[pos])
            if r == CODE_N:
                continue
            ll = self._loglik[pos]
            best = int(ll.argmax())
            if best == r:
                continue
            # Phred-scaled margin of the best base over the reference base.
            quality = 10.0 * (ll[best] - ll[r]) / np.log(10.0)
            if quality >= self.config.snp_quality_cutoff:
                out.append(
                    MaqSNP(
                        pos=int(pos),
                        ref_base=r,
                        alt_base=best,
                        quality=float(quality),
                        depth=int(self._depth[pos]),
                    )
                )
        return out

    def run(self, reads: "list[Read]") -> list[MaqSNP]:
        """Map all reads, then call SNPs."""
        if not isinstance(reads, list):
            raise PipelineError("reads must be a list of Read")
        for read in reads:
            self.add_read(read)
        return self.call_snps()
