"""The serial GNUMAP-SNP driver (Fig. 1 of the paper).

Step A: seed reads into candidate regions via the k-mer hash index.
Step B: PHMM marginal alignment of each (read, candidate) pair, batched;
        per-read posterior mapping weights spread each read's z mass over
        all its high-scoring locations.
Step C: accumulate z into the genome evidence (NORM/CHARDISC/CENTDISC).
Step D: LRT per position; significant non-reference calls become SNPs.

The driver is deliberately restartable at stage boundaries: ``map_reads``
fills an accumulator (callable repeatedly — online accumulation), and
``call_snps`` reads any accumulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.calling.caller import SNPCaller
from repro.calling.records import SNPCall
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.index.seeding import Seeder
from repro.memory.base import Accumulator, make_accumulator
from repro.observability import current, scope, span
from repro.observability.snapshot import MetricsSnapshot
from repro.phmm import sanitize
from repro.phmm.alignment import align_batch, align_batch_banded, build_windows
from repro.phmm.pwm import flat_pwm, pwm_from_read, reverse_complement_pwm
from repro.phmm.scoring import group_normalize
from repro.pipeline.config import PipelineConfig
from repro.util.timers import TimerRegistry

#: Stage names the flat :class:`TimerRegistry` view mirrors from span data.
STAGE_NAMES = ("index_build", "seed", "align", "accumulate", "call", "map_parallel")


def fill_timers(timers: TimerRegistry, snapshot: MetricsSnapshot) -> None:
    """Mirror per-stage span totals into a legacy flat timer registry."""
    totals = snapshot.leaf_totals()
    for name in STAGE_NAMES:
        if name in totals:
            seconds, count = totals[name]
            timers.account(name, seconds, entries=count)


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


@dataclass
class PipelineResult:
    """Everything a finished run produced."""

    snps: list[SNPCall]
    accumulator: Accumulator
    stats: MappingStats
    timers: TimerRegistry = field(default_factory=TimerRegistry)

    @property
    def reads_per_second(self) -> float:
        """Mapping throughput (reads / align+seed+accumulate seconds)."""
        mapping = sum(
            self.timers[k].elapsed for k in ("seed", "align", "accumulate")
            if k in self.timers
        )
        return self.stats.n_reads / mapping if mapping > 0 else 0.0


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
            # a pool worker); must describe the same genome and mer-size.
            if index.k != cfg.k:
                raise PipelineError(
                    f"supplied index has k={index.k}, config wants k={cfg.k}"
                )
            if index.seed_len != cfg.seeder.seed_len:
                raise PipelineError(
                    f"supplied index has seed_len={index.seed_len}, config "
                    f"wants seed_len={cfg.seeder.seed_len}"
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

    def map_reads(
        self,
        reads: "list[Read]",
        accumulator: Accumulator | None = None,
        timers: TimerRegistry | None = None,
    ) -> tuple[Accumulator, MappingStats]:
        """Align reads and accumulate evidence (steps A-C).

        Returns the (possibly supplied) accumulator and mapping counters.
        A supplied ``timers`` registry is populated from the stage spans
        after the fact (it is a view of the metrics, not a second clock).
        """
        cfg = self.config
        acc = accumulator if accumulator is not None else self.new_accumulator()
        if acc.length != len(self.reference):
            raise PipelineError(
                f"accumulator length {acc.length} != genome {len(self.reference)}"
            )
        stats = MappingStats()

        batch_pwms: list[np.ndarray] = []
        batch_starts: list[int] = []
        batch_groups: list[int] = []
        batch_centers: list[int] = []
        read_len: int | None = None

        with scope() as reg:

            def flush() -> None:
                nonlocal batch_pwms, batch_starts, batch_groups, batch_centers
                if not batch_pwms:
                    return
                self._align_and_accumulate(
                    np.stack(batch_pwms),
                    np.asarray(batch_starts, dtype=np.int64),
                    np.asarray(batch_groups, dtype=np.int64),
                    np.asarray(batch_centers, dtype=np.int64),
                    acc,
                )
                stats.n_batches += 1
                reg.gauge_max("pipeline.peak_accumulator_bytes", acc.nbytes())
                batch_pwms, batch_starts, batch_groups, batch_centers = (
                    [], [], [], [],
                )

            with span("map_reads"):
                for ridx, read in enumerate(reads):
                    stats.n_reads += 1
                    with span("seed"):
                        candidates = self.seeder.candidates(read)
                    if not candidates:
                        stats.n_unmapped += 1
                        continue
                    stats.n_mapped += 1
                    stats.n_pairs += len(candidates)
                    if read_len is not None and len(read) != read_len:
                        flush()
                    read_len = len(read)
                    pwm_fwd = (
                        pwm_from_read(read)
                        if cfg.quality_aware
                        else flat_pwm(read.codes)
                    )
                    pwm_rc: np.ndarray | None = None
                    for cand in candidates:
                        if cand.strand == 1:
                            pwm = pwm_fwd
                        else:
                            if pwm_rc is None:
                                pwm_rc = reverse_complement_pwm(pwm_fwd)
                            pwm = pwm_rc
                        batch_pwms.append(pwm)
                        batch_starts.append(cand.start)
                        batch_groups.append(ridx)
                        # Window column the read's first base is expected at:
                        # windows are cut at start - pad, so the seed diagonal
                        # lands on column pad unless the seeder clamped start.
                        batch_centers.append(
                            cfg.pad + (cand.band_diagonal - cand.start)
                        )
                    if len(batch_pwms) >= cfg.batch_size:
                        flush()
                flush()
            if read_len is not None:
                # Band-aware work estimate: modelled DP-cell fraction per
                # pair at this read length (1.0 when banding is off).
                reg.gauge_max(
                    "phmm.band_cell_fraction", cfg.band_cell_fraction(read_len)
                )
            reg.inc("pipeline.reads", stats.n_reads)
            reg.inc("pipeline.reads_mapped", stats.n_mapped)
            reg.inc("pipeline.reads_unmapped", stats.n_unmapped)
            reg.inc("pipeline.pairs", stats.n_pairs)
            reg.inc("pipeline.batches", stats.n_batches)
            if timers is not None:
                fill_timers(timers, reg.snapshot())
        return acc, stats

    def _align_and_accumulate(
        self,
        pwms: np.ndarray,
        starts: np.ndarray,
        groups: np.ndarray,
        centers: np.ndarray,
        acc: Accumulator,
    ) -> None:
        cfg = self.config
        n = pwms.shape[1]
        width = n + 2 * cfg.pad
        with span("align"):
            windows, valid = build_windows(
                self.reference.codes, starts - cfg.pad, width
            )
            if cfg.posterior_mode == "viterbi":
                z, loglik = self._viterbi_evidence(pwms, windows, valid)
                weights = _one_hot_best(loglik, groups)
            else:
                if cfg.banding:
                    outcome = align_batch_banded(
                        pwms,
                        windows,
                        cfg.phmm,
                        centers,
                        cfg.band_w,
                        tolerance=cfg.band_tolerance,
                        adaptive=cfg.band_mode == "adaptive",
                        mode=cfg.alignment_mode,
                        edge_policy=cfg.edge_policy,
                        valid=valid,
                        groups=groups,
                        escape_min_ratio=cfg.min_ratio,
                        kernel=cfg.phmm_kernel,
                        dtype=cfg.phmm_dtype,
                    )
                else:
                    outcome = align_batch(
                        pwms,
                        windows,
                        cfg.phmm,
                        mode=cfg.alignment_mode,
                        edge_policy=cfg.edge_policy,
                        valid=valid,
                        kernel=cfg.phmm_kernel,
                        dtype=cfg.phmm_dtype,
                    )
                z = outcome.z
                weights = group_normalize(
                    outcome.loglik, groups, min_ratio=cfg.min_ratio
                )
            # Posterior mapping-weight distribution: how concentrated the
            # per-read z mass is across candidates (1.0 = unique mapping).
            current().observe_array("pipeline.mapping_weight", weights)
        with span("accumulate"):
            zw = z * weights[:, None, None]
            cols = (starts - cfg.pad)[:, None] + np.arange(width)[None, :]
            live = valid & (weights[:, None] > 0)
            if cfg.accumulator.upper() == "NORM":
                # Dense accumulation is linear: one flattened scatter-add.
                mask = live.ravel()
                acc.add(cols.ravel()[mask], zw.reshape(-1, 5)[mask])
            else:
                # Discretised modes quantise per add(); keep per-pair calls
                # so the online-requantisation dynamics stay per-read, as
                # the paper analyses.
                for b in range(pwms.shape[0]):
                    m = live[b]
                    if m.any():
                        acc.add(cols[b][m], zw[b][m])

    def _viterbi_evidence(
        self, pwms: np.ndarray, windows: np.ndarray, valid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-best-alignment evidence (the ``posterior_mode="viterbi"``
        ablation): along each pair's Viterbi path, matched cells contribute
        the read's PWM row and skipped genome bases contribute gap mass."""
        from repro.errors import AlignmentError
        from repro.phmm.forward_backward import emissions_batch
        from repro.phmm.viterbi import viterbi_align

        cfg = self.config
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

    # -- stage D ---------------------------------------------------------------
    def call_snps(
        self, accumulator: Accumulator, timers: TimerRegistry | None = None
    ) -> list[SNPCall]:
        """LRT over the accumulated evidence; returns SNP records."""
        with scope() as reg:
            with span("call"):
                evidence = accumulator.snapshot()
                if sanitize.enabled():
                    sanitize.check_accumulator(evidence, where="accumulator.snapshot")
                snps = self.caller.snps(evidence, self.reference.codes)
            if timers is not None:
                fill_timers(timers, reg.snapshot())
        return snps

    # -- end to end --------------------------------------------------------------
    def run(self, reads: "list[Read]") -> PipelineResult:
        """Full pipeline: map every read, then call SNPs."""
        timers = TimerRegistry()
        acc, stats = self.map_reads(reads, timers=timers)
        snps = self.call_snps(acc, timers=timers)
        return PipelineResult(snps=snps, accumulator=acc, stats=stats, timers=timers)
