"""Compute-cost calibration for the simulated cluster.

The virtual-time engine needs to know how long this machine takes to do the
pipeline's work so that simulated ranks can *account* compute instead of
racing each other for the single physical core.
:meth:`ComputeCalibration.measure` runs the real pipeline on a sample and
extracts per-unit costs; the parallel drivers then charge
``n_local_reads * seconds_per_seed + n_local_pairs * seconds_per_pair``
(etc.) to each rank's clock.

Timings come from the observability registry (scoped spans around the
sample run), so calibration reads the *same* clock the pipeline charges —
no parallel ``perf_counter`` bookkeeping that can drift from the stage
spans it is supposed to mirror.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference

if TYPE_CHECKING:  # pragma: no cover - annotation-only import
    from repro.pipeline.config import PipelineConfig


@dataclass(frozen=True)
class ComputeCalibration:
    """Measured per-unit compute costs (seconds).

    Attributes
    ----------
    seconds_per_seed:
        Seeding cost per read (index queries + diagonal clustering).
    seconds_per_pair:
        Alignment, weighting and accumulation cost per (read, candidate) pair.
    pairs_per_read:
        Mean candidate count per read in the calibration sample (used when a
        caller only knows read counts).
    seconds_per_index_base:
        Index-construction cost per genome base.
    seconds_per_called_position:
        LRT cost per genome position.
    """

    seconds_per_seed: float
    seconds_per_pair: float
    pairs_per_read: float
    seconds_per_index_base: float
    seconds_per_called_position: float

    def __post_init__(self) -> None:
        for name in (
            "seconds_per_seed",
            "seconds_per_pair",
            "pairs_per_read",
            "seconds_per_index_base",
            "seconds_per_called_position",
        ):
            if getattr(self, name) < 0:
                raise PipelineError(f"{name} must be non-negative")

    @property
    def seconds_per_read(self) -> float:
        """End-to-end mapping cost per read at the calibrated candidate rate."""
        return self.seconds_per_seed + self.pairs_per_read * self.seconds_per_pair

    def mapping_seconds(self, n_reads: int, n_pairs: int | None = None) -> float:
        """Compute charge for seeding ``n_reads`` and aligning ``n_pairs``,
        at the configuration this calibration was measured with."""
        if n_pairs is None:
            n_pairs = int(round(n_reads * self.pairs_per_read))
        return n_reads * self.seconds_per_seed + n_pairs * self.seconds_per_pair

    def index_seconds(self, genome_length: int) -> float:
        return genome_length * self.seconds_per_index_base

    def calling_seconds(self, n_positions: int) -> float:
        return n_positions * self.seconds_per_called_position

    @classmethod
    def measure(
        cls,
        reference: Reference,
        reads: "list[Read]",
        config: "PipelineConfig | None" = None,
    ) -> "ComputeCalibration":
        """Calibrate by timing one real serial run on a read sample."""
        from repro.observability import scope
        from repro.pipeline.gnumap import GnumapSnp

        if not reads:
            raise PipelineError("need at least one read to calibrate")
        with scope() as reg:
            pipe = GnumapSnp(reference, config)
        t_index = reg.snapshot().leaf_totals().get("index_build", (0.0, 0))[0]

        # First pass warms NumPy/SciPy dispatch caches; the timed second pass
        # is what we calibrate on.
        pipe.map_reads(reads)
        with scope() as reg:
            pipe.call_snps(pipe.map_reads(reads))
        snap = reg.snapshot()
        stages = snap.leaf_totals()
        n_reads = max(snap.counter("pipeline.reads"), 1)
        n_pairs = snap.counter("pipeline.pairs")

        def seconds(name: str) -> float:
            return stages.get(name, (0.0, 0))[0]

        pair_seconds = seconds("align") + seconds("weigh") + seconds("accumulate")
        return cls(
            seconds_per_seed=seconds("seed") / n_reads,
            seconds_per_pair=pair_seconds / max(n_pairs, 1),
            pairs_per_read=n_pairs / n_reads,
            seconds_per_index_base=t_index / len(reference),
            seconds_per_called_position=seconds("call") / len(reference),
        )
