"""Paired-end GNUMAP-SNP: the insert-size prior joins the multiread weights.

Extends the paper's posterior location weighting to read pairs: a pair's
candidate *placements* are joint hypotheses ``(c1, c2)`` over the mates'
candidate locations, scored

    joint(c1, c2) = loglik(c1) + loglik(c2) + log N(insert(c1, c2); mu, sd)

for properly oriented (inward-facing, positive-insert) combinations; each
mate's accumulation weight is its marginal over the joint softmax.  Mates
with no concordant partner fall back to single-end weighting times a
configured discordance penalty — so nothing is discarded, evidence is just
weighted by plausibility, in the spirit of the paper's "use all the
information in the data".

The payoff is repeat disambiguation: a mate anchored in unique sequence
concentrates its partner's weight on the true repeat copy, where the
single-end pipeline must split 50/50 (see
tests/pipeline/test_paired.py::TestRepeatDisambiguation).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.memory.base import Accumulator
from repro.observability import scope, span
from repro.phmm.scoring import normalize_location_weights
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairEvidence, read_slices
from repro.pipeline.gnumap import CallResult, GnumapSnp
from repro.simulate.paired import ReadPair


#: Log-prior of an improperly paired (or singleton) placement relative to a
#: concordant one at the modal insert — roughly log of the
#: chimera/discordance rate.
DISCORDANT_LOGPENALTY = -8.0


@dataclass
class PairedConfig:
    """Pairing model on top of :class:`PipelineConfig`: the library's
    Gaussian insert-size distribution."""

    insert_mean: float = 300.0
    insert_sd: float = 30.0

    def __post_init__(self) -> None:
        if self.insert_mean <= 0 or self.insert_sd <= 0:
            raise PipelineError("insert model parameters must be positive")

    def insert_logpdf(self, insert: np.ndarray) -> np.ndarray:
        """Gaussian log-density of observed insert sizes."""
        insert = np.asarray(insert, dtype=np.float64)
        return (
            -0.5 * ((insert - self.insert_mean) / self.insert_sd) ** 2
            - np.log(self.insert_sd * np.sqrt(2 * np.pi))
        )


class PairedGnumap:
    """Paired-end driver wrapping the single-end pipeline machinery."""

    def __init__(
        self,
        reference: Reference,
        config: PipelineConfig | None = None,
        paired: PairedConfig | None = None,
    ) -> None:
        self.pipeline = GnumapSnp(reference, config)
        self.paired = paired or PairedConfig()

    @property
    def config(self) -> PipelineConfig:
        return self.pipeline.config

    # -- pairing ---------------------------------------------------------------
    def _pair_weights(
        self, m1: PairEvidence, m2: PairEvidence, len1: int, len2: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Marginal per-candidate weights from the joint placement softmax
        over one fragment's mates, ``len1`` and ``len2`` bases long."""
        p = self.paired
        l1 = m1.loglik[:, None]  # (n1, 1)
        l2 = m2.loglik[None, :]  # (1, n2)
        s1 = m1.strands[:, None]
        s2 = m2.strands[None, :]
        pos1 = m1.starts[:, None].astype(np.float64)
        pos2 = m2.starts[None, :].astype(np.float64)
        # FR orientation: the forward mate lies 5' of the reverse mate, and
        # the fragment ends where the *reverse* mate does.
        insert_fwd1 = pos2 + len2 - pos1  # valid when s1=+1, s2=-1
        insert_fwd2 = pos1 + len1 - pos2  # valid when s1=-1, s2=+1
        insert = np.where(s1 == 1, insert_fwd1, insert_fwd2)
        proper = (s1 != s2) & (insert >= len1 + len2)
        # Every placement hypothesis explains BOTH mates' data: concordant
        # combinations earn the insert density, improper ones (same strand,
        # negative or absurd insert — i.e. a chimera or mis-seed) pay the
        # discordance prior instead.  Mates with *no* candidates at all are
        # handled by the caller's single-end fallback, so no extra singleton
        # hypotheses belong here (a singleton that ignored the partner's
        # likelihood would compare hypotheses over different data).
        joint = l1 + l2 + np.where(
            proper, p.insert_logpdf(insert), DISCORDANT_LOGPENALTY
        )
        ceiling = np.max(joint)
        if not np.isfinite(ceiling):
            return np.zeros(l1.size), np.zeros(l2.size)
        ej = np.exp(np.clip(joint - ceiling, -745.0, 0.0))
        total = ej.sum()
        w1 = ej.sum(axis=1) / total
        w2 = ej.sum(axis=0) / total
        return w1, w2

    def _block_weights(
        self, reads: "list[Read]", batches: "list[PairEvidence]"
    ) -> "list[np.ndarray]":
        """Each batch's per-pair weights; mates of fragment ``f`` are reads
        ``2f`` and ``2f + 1`` of the block, in whichever batches."""
        weights = [np.empty(evidence.loglik.size) for evidence in batches]
        mates = {}  # read -> (its evidence, its slice of the weights)
        for evidence, share in zip(batches, weights):
            for read, at in read_slices(evidence.groups):
                mates[read] = evidence[at], share[at]
        for read, (mate, share) in mates.items():
            other, other_share = mates.get(read ^ 1, (None, None))
            if other is None:
                # one mate unmapped: the other degrades to single-end
                share[:] = normalize_location_weights(
                    mate.loglik, min_ratio=self.config.min_ratio
                )
            elif read % 2 == 0:
                share[:], other_share[:] = self._pair_weights(
                    mate, other, len(reads[read]), len(reads[read ^ 1])
                )
        return weights

    # -- public API --------------------------------------------------------------
    def map_pairs(
        self,
        pairs: "list[ReadPair]",
        accumulator: Accumulator | None = None,
    ) -> Accumulator:
        """Align read pairs with joint insert-aware weighting (steps A-C).

        Both mates of a block of fragments go through the pipeline's one
        mapping loop; a full stack or a length change can cut between two
        mates, so a block is weighted once all its evidence is back.
        """
        pipe = self.pipeline
        acc = pipe.accumulator_or_new(accumulator)
        per_block = max(1, self.config.batch_size // 2)
        with span("map_reads"):
            for lo in range(0, len(pairs), per_block):
                reads = [
                    mate
                    for pair in pairs[lo : lo + per_block]
                    for mate in (pair.read1, pair.read2)
                ]
                batches = list(pipe.map_batches(reads))
                with span("weigh"):
                    weights = self._block_weights(reads, batches)
                for evidence, share in zip(batches, weights):
                    pipe.accumulate(acc, evidence, share)
        return acc

    def run(self, pairs: "list[ReadPair]") -> CallResult:
        """Full paired pipeline: map every pair, then call SNPs."""
        with scope() as reg:
            acc = self.map_pairs(pairs)
            snps = self.pipeline.call_snps(acc)
            return CallResult(snps, acc, reg.snapshot_values())
