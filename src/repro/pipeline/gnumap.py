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
own (``map_batches``, a generator of per-batch evidence) so that a pool
worker can run them while the accumulator stays with the caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.calling.caller import SNPCaller
from repro.calling.records import SNPCall, write_snp_calls
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex, table_width
from repro.index.seeding import Seeder
from repro.memory.base import Accumulator, make_accumulator
from repro.observability import current, scope, span
from repro.observability.snapshot import MetricsSnapshot
from repro.phmm import sanitize
from repro.phmm.scoring import group_normalize
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairEvidence, PairStack, align_pairs, deposit


def _one_hot_best(logliks: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Per-read one-hot weight on the best-scoring candidate (ties to the
    first), used by the single-alignment ablation.  Reads whose candidates
    all failed (-inf) get zero weight everywhere."""
    weights = np.zeros_like(logliks)
    if logliks.size == 0:
        return weights
    change = np.nonzero(np.diff(groups) != 0)[0] + 1
    starts = np.concatenate([[0], change, [logliks.size]])
    for a, b in zip(starts[:-1], starts[1:]):
        segment = logliks[a:b]
        if np.isfinite(segment).any():
            weights[a + int(np.argmax(segment))] = 1.0
    return weights


@dataclass
class MappingStats:
    """Counters from the mapping stage."""

    n_reads: int = 0
    n_mapped: int = 0
    n_unmapped: int = 0
    n_pairs: int = 0
    n_batches: int = 0

    def merge(self, other: "MappingStats") -> None:
        self.n_reads += other.n_reads
        self.n_mapped += other.n_mapped
        self.n_unmapped += other.n_unmapped
        self.n_pairs += other.n_pairs
        self.n_batches += other.n_batches

    def publish(self) -> None:
        """Add these counts to the current registry's ``pipeline.*`` counters."""
        reg = current()
        reg.inc("pipeline.reads", self.n_reads)
        reg.inc("pipeline.reads_mapped", self.n_mapped)
        reg.inc("pipeline.reads_unmapped", self.n_unmapped)
        reg.inc("pipeline.pairs", self.n_pairs)
        reg.inc("pipeline.batches", self.n_batches)


@dataclass
class CallResult:
    """Everything one mapping+calling run produced.

    Attributes
    ----------
    snps:
        Significant SNP calls, sorted by position.
    stats:
        Mapping-stage counters (reads, pairs, batches).
    accumulator:
        The genome evidence the calls were made from (reusable for
        re-calling under a different caller configuration).
    metrics:
        The run's own spans, counters, gauges and histograms (trace events
        are left to the enclosing registry).
    """

    snps: list[SNPCall]
    stats: MappingStats
    accumulator: Accumulator
    metrics: MetricsSnapshot

    @property
    def reads_per_second(self) -> float:
        """Mapping throughput: reads per second of the parent's
        ``map_parallel`` wall on a pool run (the stage leaves there are
        worker-summed CPU seconds), else per seed+align+accumulate second."""
        totals = self.metrics.leaf_totals()
        if "map_parallel" in totals:
            mapping = totals["map_parallel"][0]
        else:
            mapping = sum(
                totals[k][0] for k in ("seed", "align", "accumulate") if k in totals
            )
        return self.stats.n_reads / mapping if mapping > 0 else 0.0

    def write_tsv(self, path: str) -> int:
        """Write the SNP calls as the standard TSV; returns rows written."""
        return write_snp_calls(path, self.snps)


class GnumapSnp:
    """Serial GNUMAP-SNP pipeline bound to one reference genome."""

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

    # -- stage B + C ---------------------------------------------------------
    def new_accumulator(self) -> Accumulator:
        """Fresh accumulator of the configured memory mode."""
        return make_accumulator(self.config.accumulator, len(self.reference))

    def accumulator_or_new(self, accumulator: "Accumulator | None") -> Accumulator:
        """``accumulator`` once checked against this genome; a fresh one
        for ``None``."""
        if accumulator is None:
            return self.new_accumulator()
        if accumulator.length != len(self.reference):
            raise PipelineError(
                f"accumulator length {accumulator.length} != genome "
                f"{len(self.reference)}"
            )
        return accumulator

    def map_batches(
        self, reads: "list[Read]", stats: MappingStats
    ) -> "Iterator[tuple[PairEvidence, np.ndarray]]":
        """Steps A-B: seed and align ``reads``; yield each Pair-HMM batch's
        ``(evidence, weights)`` in read order.

        Serial :meth:`map_reads` deposits them as they appear; a pool worker
        collects its chunk's and ships them to the parent's accumulator
        (:mod:`repro.pipeline.mp_backend`).  ``stats`` is filled as reads are
        consumed and published to the current registry on exhaustion.
        """
        cfg = self.config
        stack = PairStack()
        read_len: int | None = None
        # Step A runs a block of reads at a time; step B then stacks them
        # read by read, so Pair-HMM batches are cut where they always were.
        for lo in range(0, len(reads), cfg.batch_size):
            block = reads[lo : lo + cfg.batch_size]
            with span("seed"):
                seeded = self.seeder.candidates_batch(block)
            for ridx, (read, candidates) in enumerate(zip(block, seeded), lo):
                stats.n_reads += 1
                if not candidates:
                    stats.n_unmapped += 1
                    continue
                stats.n_mapped += 1
                stats.n_pairs += len(candidates)
                if stack and (len(read) != read_len or len(stack) >= cfg.batch_size):
                    stats.n_batches += 1
                    yield self._align(stack)
                    stack = PairStack()
                read_len = len(read)
                stack.add_read(read, candidates, cfg, ridx)
        if stack:
            stats.n_batches += 1
            yield self._align(stack)
        if read_len is not None:
            # Band-aware work estimate: modelled DP-cell fraction per
            # pair at this read length (1.0 when banding is off).
            current().gauge_max(
                "phmm.band_cell_fraction", cfg.band_cell_fraction(read_len)
            )
        stats.publish()

    def _align(self, stack: PairStack) -> "tuple[PairEvidence, np.ndarray]":
        cfg = self.config
        with span("align"):
            evidence = align_pairs(self.reference.codes, stack, cfg)
            if cfg.posterior_mode == "viterbi":
                weights = _one_hot_best(evidence.loglik, evidence.groups)
            else:
                weights = group_normalize(
                    evidence.loglik, evidence.groups, min_ratio=cfg.min_ratio
                )
            # Posterior mapping-weight distribution: how concentrated the
            # per-read z mass is across candidates (1.0 = unique mapping).
            current().observe_array("pipeline.mapping_weight", weights)
        return evidence, weights

    def accumulate(
        self, acc: Accumulator, evidence: PairEvidence, weights: np.ndarray
    ) -> None:
        """Step C: deposit one batch's weighted evidence into ``acc``."""
        with span("accumulate"):
            deposit(acc, evidence, weights, self.config)
        current().gauge_max("pipeline.peak_accumulator_bytes", acc.nbytes())

    def map_reads(
        self,
        reads: "list[Read]",
        accumulator: Accumulator | None = None,
    ) -> tuple[Accumulator, MappingStats]:
        """Align reads and accumulate evidence (steps A-C).

        Returns the (possibly supplied) accumulator and mapping counters.
        """
        acc = self.accumulator_or_new(accumulator)
        stats = MappingStats()
        with span("map_reads"):
            for evidence, weights in self.map_batches(reads, stats):
                self.accumulate(acc, evidence, weights)
        return acc, stats

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
            acc, stats = self.map_reads(reads)
            snps = self.call_snps(acc)
            return CallResult(snps, stats, acc, reg.snapshot_values())
