"""End-to-end GNUMAP-SNP pipeline: index -> PHMM alignment -> LRT calling.

``GnumapSnp`` is the serial driver (Fig. 1's four steps); the
``evidence`` module is the one stack → align → deposit core every driver
shares; the ``parallel_driver`` module provides the two MPI modes of the
paper — read-spread ("shared memory") and genome-partitioned
memory-spread — running over the simulated cluster substrate; ``mp_backend`` is a real ``multiprocessing``
implementation of the read-spread mode.
"""

from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import CallResult, GnumapSnp, MappingStats
from repro.pipeline.calibration import ComputeCalibration
from repro.pipeline.parallel_driver import run_memory_spread, run_read_spread
from repro.pipeline.online import OnlineGnumap
from repro.pipeline.paired import PairedConfig, PairedGnumap

__all__ = [
    "PairedConfig",
    "PairedGnumap",
    "PipelineConfig",
    "GnumapSnp",
    "MappingStats",
    "CallResult",
    "ComputeCalibration",
    "run_read_spread",
    "run_memory_spread",
    "OnlineGnumap",
]
