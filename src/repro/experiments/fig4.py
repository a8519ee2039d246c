"""Fig. 4 — sequences/second for the two MPI memory-allocation modes.

Paper: solid red = perfect linear, black = "all the genome in shared memory
for every process" (read-spread), blue = "only the memory is spread across
nodes" (memory-spread).  Read-spread scales near-linearly; memory-spread
falls away because every rank seeds every read and each read batch needs a
global score-normalisation allreduce.

Each point runs the *real* SPMD program over the simulated cluster:
computation is charged to virtual clocks from a measured calibration,
communication from the LogGP model with true payload sizes.  The series are
sequences/second computed from the makespan.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigError
from repro.experiments.workload import Workload, build_workload
from repro.parallel.cluster import Cluster
from repro.parallel.costmodel import LogGPModel
from repro.pipeline.calibration import ComputeCalibration
from repro.pipeline.config import PipelineConfig
from repro.pipeline.parallel_driver import run_memory_spread, run_read_spread
from repro.util.tables import format_table

DEFAULT_RANKS = (1, 2, 4, 8, 16, 32)


@dataclass
class Fig4Point:
    n_ranks: int
    mode: str
    seconds: float
    reads_per_second: float
    linear_reads_per_second: float

    def as_list(self) -> list:
        return [
            self.n_ranks,
            self.mode,
            round(self.seconds, 4),
            round(self.reads_per_second, 1),
            round(self.linear_reads_per_second, 1),
        ]


def run(
    scale: str = "small",
    seed: int = 2012,
    ranks: "tuple[int, ...]" = DEFAULT_RANKS,
    workload: Workload | None = None,
) -> list[Fig4Point]:
    """Regenerate both Fig. 4 series (plus the perfect-linear reference).

    The two-level hybrid beyond the paper (memory-spread across node
    groups, read-spread within) is ``examples/parallel_scaling.py``.
    """
    if not ranks or any(r < 1 for r in ranks):
        raise ConfigError(f"invalid rank list {ranks}")
    wl = workload or build_workload(scale=scale, seed=seed)
    config = PipelineConfig()
    calib_sample = wl.reads[: max(200, len(wl.reads) // 20)]
    calibration = ComputeCalibration.measure(wl.reference, calib_sample, config)
    cost = LogGPModel()

    modes: "list[tuple[str, Any]]" = [
        ("read-spread", run_read_spread),
        ("memory-spread", run_memory_spread),
    ]
    points: list[Fig4Point] = []
    base_rate: dict[str, float] = {}
    for mode, program in modes:
        for p in ranks:
            if mode == "memory-spread" and p > len(wl.reference):
                continue
            cluster = Cluster(p, cost)
            res = cluster.run(program, wl.reference, wl.reads, config, calibration)
            rate = len(wl.reads) / res.makespan
            if mode not in base_rate:
                base_rate[mode] = rate / p
            points.append(
                Fig4Point(
                    n_ranks=p,
                    mode=mode,
                    seconds=res.makespan,
                    reads_per_second=rate,
                    linear_reads_per_second=base_rate[mode] * p,
                )
            )
    return points


def format(points: "list[Fig4Point]") -> str:
    return format_table(
        ["ranks", "mode", "sim seconds", "reads/s", "perfect linear reads/s"],
        [p.as_list() for p in points],
        title="Fig 4 - sequence processing rate for memory allocation",
    )
