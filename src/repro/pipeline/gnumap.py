"""The serial GNUMAP-SNP driver (Fig. 1 of the paper).

Step A: seed reads into candidate regions via the k-mer hash index.
Step B: PHMM marginal alignment of each (read, candidate) pair, batched;
        per-read posterior mapping weights spread each read's z mass over
        all its high-scoring locations.
Step C: accumulate z into the genome evidence (NORM/CHARDISC/CENTDISC).
Step D: LRT per position; significant non-reference calls become SNPs.

The driver is deliberately restartable at stage boundaries: ``map_reads``
fills an accumulator (callable repeatedly — online accumulation), and
``call_snps`` reads any accumulator.  Steps A-B are also exposed on their
own (``map_batches``, a generator of per-batch evidence): the one loop every
driver consumes — a pool worker runs it while the accumulator stays with the
caller; the paired pipeline and the SAM writer weight its evidence their way.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from repro.calling.caller import SNPCaller
from repro.calling.records import SNPCall, write_snp_calls
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex, table_width
from repro.index.seeding import NO_CANDIDATES, SeedBlock, Seeder
from repro.memory.base import Accumulator, make_accumulator
from repro.observability import current, scope, span
from repro.observability.snapshot import MetricsSnapshot
from repro.phmm import sanitize
from repro.phmm.forward_backward import Workspace
from repro.phmm.scoring import group_normalize
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairEvidence, PairStack, align_pairs, deposit, read_slices


def _one_hot_best(logliks: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Per-read one-hot weight on the best-scoring candidate (ties to the
    first), used by the single-alignment ablation.  Reads whose candidates
    all failed (-inf) get zero weight everywhere."""
    weights = np.zeros_like(logliks)
    for _, at in read_slices(groups):
        if np.isfinite(logliks[at]).any():
            weights[at.start + int(np.argmax(logliks[at]))] = 1.0
    return weights


@dataclass(frozen=True)
class MappingStats:
    """The mapping stage's counts, read from a snapshot's ``pipeline.*``
    counters — the one record of them, which every executor merges."""

    n_reads: int
    n_mapped: int
    n_unmapped: int
    n_pairs: int
    n_batches: int

    @classmethod
    def of(cls, metrics: MetricsSnapshot) -> "MappingStats":
        count = metrics.counter
        return cls(
            int(count("pipeline.reads")),
            int(count("pipeline.reads_mapped")),
            int(count("pipeline.reads_unmapped")),
            int(count("pipeline.pairs")),
            int(count("pipeline.batches")),
        )


@dataclass
class CallResult:
    """Everything one mapping+calling run produced.

    Attributes
    ----------
    snps:
        Significant SNP calls, sorted by position.
    accumulator:
        The genome evidence the calls were made from (reusable for
        re-calling under a different caller configuration).
    metrics:
        The run's own spans, counters, gauges and histograms (trace events
        are left to the enclosing registry); :attr:`stats` reads its
        mapping counts.
    """

    snps: list[SNPCall]
    accumulator: Accumulator
    metrics: MetricsSnapshot

    @property
    def stats(self) -> MappingStats:
        return MappingStats.of(self.metrics)

    @property
    def reads_per_second(self) -> float:
        """Mapping throughput: reads per second of the span that holds the
        mapping — the parent's ``map_parallel`` wall on a pool run (the
        spans under it are worker-summed CPU seconds), else ``map_reads``."""
        totals = self.metrics.leaf_totals()
        mapping = totals.get("map_parallel", totals.get("map_reads", (0.0, 0)))[0]
        return self.metrics.counter("pipeline.reads") / mapping if mapping > 0 else 0.0

    def write_tsv(self, path: str) -> int:
        """Write the SNP calls as the standard TSV; returns rows written."""
        return write_snp_calls(path, self.snps)


class GnumapSnp:
    """Serial GNUMAP-SNP pipeline bound to one reference genome.

    It owns the one :class:`~repro.phmm.forward_backward.Workspace` its
    kernel calls are cut from, so a pipeline maps in one thread at a time;
    each pool worker and each simulated-cluster rank builds its own.
    """

    def __init__(
        self,
        reference: Reference,
        config: PipelineConfig | None = None,
        *,
        index: "GenomeIndex | None" = None,
    ) -> None:
        self.reference = reference
        self.config = config or PipelineConfig()
        cfg = self.config
        if index is not None:
            # Pre-built index (e.g. attached zero-copy from shared memory by
            # a pool worker); must describe the same genome and seed width.
            want = table_width(cfg.k, cfg.seeder.seed_len)
            if index.seed_width != want:
                raise PipelineError(
                    f"supplied index has seed width {index.seed_width}, "
                    f"config wants {want}"
                )
            if index.reference is not reference and len(index.reference) != len(
                reference
            ):
                raise PipelineError(
                    "supplied index was built for a different reference"
                )
            self.index = index
        else:
            self.index = GenomeIndex(
                reference,
                k=cfg.k,
                max_positions_per_kmer=cfg.max_index_positions_per_kmer,
                seed_len=cfg.seeder.seed_len,
            )
        self.seeder = Seeder(self.index, cfg.seeder)
        self.caller = SNPCaller(cfg.caller)
        self.workspace = Workspace()

    def use_index(self, index: GenomeIndex) -> None:
        """Seed from ``index``, an equal copy of this pipeline's index (the
        pool's published view of it), from now on."""
        self.index = index
        self.seeder = Seeder(index, self.config.seeder)

    # -- stage B + C ---------------------------------------------------------
    def accumulator_or_new(self, accumulator: "Accumulator | None") -> Accumulator:
        """``accumulator`` once checked against this genome; a fresh one
        for ``None``."""
        if accumulator is None:
            return make_accumulator(self.config.accumulator, len(self.reference))
        if accumulator.length != len(self.reference):
            raise PipelineError(
                f"accumulator length {accumulator.length} != genome "
                f"{len(self.reference)}"
            )
        return accumulator

    def map_batches(self, reads: "list[Read]") -> "Iterator[PairEvidence]":
        """Steps A-B: seed and align ``reads``; yield each Pair-HMM batch's
        evidence in read order, ``groups`` indexing ``reads``.

        The one loop that turns reads into evidence: every driver consumes
        it (the genome-partitioned one its second half, :meth:`align_seeded`)
        and differs only in how it weights the pairs (:meth:`weigh`, the
        paired insert-size softmax, SAM's per-read ranking).  It counts what
        it maps in the current registry's ``pipeline.*`` counters: reads,
        reads mapped (at least one candidate) and unmapped, pairs, batches.
        """
        return self.align_seeded(reads, self._seed_blocks(reads))

    def _seed_blocks(self, reads: "list[Read]") -> "Iterator[SeedBlock]":
        """Step A, ``batch_size`` reads at a time, ``read`` indexing ``reads``."""
        reg = current()
        for lo in range(0, len(reads), self.config.batch_size):
            block = reads[lo : lo + self.config.batch_size]
            with span("seed"):
                seeded = self.seeder.seed(block)
            n_mapped = np.unique(seeded.read).size
            reg.inc("pipeline.reads", len(block))
            reg.inc("pipeline.reads_mapped", n_mapped)
            reg.inc("pipeline.reads_unmapped", len(block) - n_mapped)
            reg.inc("pipeline.pairs", len(seeded))
            yield replace(seeded, read=seeded.read + lo)

    def align_seeded(
        self, reads: "list[Read]", blocks: "Iterable[SeedBlock]"
    ) -> "Iterator[PairEvidence]":
        """Step B: cut kernel calls from seeded ``blocks`` (``read``
        indexing ``reads``, in read order) and yield each call's evidence,
        counting it in ``pipeline.batches``.

        A call holds equal-length reads and is closed before it passes
        ``batch_size`` pairs; a read's pairs never straddle two calls.  The
        stack still open at a block's end (``held``, of ``read_len``-long
        reads) carries into the next block.
        """
        reg = current()
        held, read_len = NO_CANDIDATES, None
        for seeded in blocks:
            a, b = 0, len(held)  # the open stack is held[a:b]
            held = SeedBlock.concat((held, seeded))
            ids, per_read = np.unique(seeded.read, return_counts=True)
            for i, n_pairs in zip(ids.tolist(), per_read.tolist()):
                if b > a and (len(reads[i]) != read_len or b - a >= self.config.batch_size):
                    reg.inc("pipeline.batches")
                    yield self._align(reads, held[a:b])
                    a = b
                read_len = len(reads[i])
                b += n_pairs
            held = held[a:]
        if len(held):
            reg.inc("pipeline.batches")
            yield self._align(reads, held)

    def _align(self, reads: "list[Read]", seeded: SeedBlock) -> PairEvidence:
        with span("align"):
            return align_pairs(
                self.reference.codes, PairStack(reads, seeded, self.config), self.config,
                self.workspace,
            )

    def weigh(self, loglik: np.ndarray, groups: np.ndarray) -> np.ndarray:
        """Per-pair mapping weights of pairs grouped by read: each read's z
        mass shared over its candidates by posterior (one-hot on the best
        under ``posterior_mode="viterbi"``)."""
        with span("weigh"):
            if self.config.posterior_mode == "viterbi":
                return _one_hot_best(loglik, groups)
            return group_normalize(loglik, groups, min_ratio=self.config.min_ratio)

    def accumulate(
        self, acc: Accumulator, evidence: PairEvidence, weights: np.ndarray
    ) -> None:
        """Step C: deposit one batch's weighted evidence into ``acc``."""
        with span("accumulate"):
            deposit(acc, evidence, weights, self.config)
        reg = current()
        # Posterior mapping-weight distribution: how concentrated the
        # per-read z mass is across candidates (1.0 = unique mapping).
        reg.observe_array("pipeline.mapping_weight", weights)
        reg.gauge_max("pipeline.peak_accumulator_bytes", acc.nbytes())

    def map_reads(
        self,
        reads: "list[Read]",
        accumulator: Accumulator | None = None,
    ) -> Accumulator:
        """Align reads and accumulate evidence (steps A-C).

        Returns the (possibly supplied) accumulator; the counts land in the
        current registry (:meth:`map_batches`).
        """
        acc = self.accumulator_or_new(accumulator)
        with span("map_reads"):
            for evidence in self.map_batches(reads):
                self.accumulate(acc, evidence, self.weigh(evidence.loglik, evidence.groups))
        return acc

    # -- stage D ---------------------------------------------------------------
    def call_snps(self, accumulator: Accumulator) -> list[SNPCall]:
        """LRT over the accumulated evidence; returns SNP records."""
        with span("call"):
            evidence = accumulator.snapshot()
            if sanitize.enabled():
                sanitize.check_accumulator(evidence, where="accumulator.snapshot")
            return self.caller.snps(evidence, self.reference.codes)

    # -- end to end --------------------------------------------------------------
    def run(self, reads: "list[Read]") -> CallResult:
        """Full pipeline: map every read, then call SNPs."""
        with scope() as reg:
            acc = self.map_reads(reads)
            snps = self.call_snps(acc)
            return CallResult(snps, acc, reg.snapshot_values())
