"""Pipeline configuration.

One dataclass gathers every knob of the end-to-end run so experiments can be
described declaratively.  Sub-configurations (seeder, caller, parallel
execution) reuse their own dataclasses.

Parallel-execution knobs live in :class:`ParallelConfig` under
``PipelineConfig.parallel``; the worker count is not a config field but
``Engine(workers=)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar

from repro.calling.caller import CallerConfig
from repro.errors import ConfigError
from repro.index.seeding import SeederConfig
from repro.parallel.faults import parse_fault_spec
from repro.phmm.model import PHMMParams

#: Start methods the multiprocessing backend may be pinned to.
MP_START_METHODS = ("spawn", "fork", "forkserver")


@dataclass
class ParallelConfig:
    """Parallel-execution knobs: start method and fault tolerance.

    None of them can change a call: workers ship per-read evidence and the
    parent owns the only accumulator, so output is byte-identical to a
    serial run whatever is set here (:mod:`repro.pipeline.mp_backend`).
    The worker count is not here: it is ``Engine(workers=)``.  How reads are
    cut into chunks is not a knob; see
    :func:`repro.pipeline.mp_backend.chunk_count`.

    Attributes
    ----------
    start_method:
        Multiprocessing start method for the real process backend, pinned
        explicitly (``"spawn"`` default) so span-stack and
        sanitizer-propagation semantics never depend on what a prior
        caller or the platform set.
    chunk_timeout:
        Per-chunk deadline in seconds for the fault-tolerant pool; a
        worker past it is killed and the chunk retried.  The deadline
        clock only starts once the worker has reported ready, so one-time
        worker init never eats into a chunk's budget.
    max_retries:
        Re-dispatches per chunk after the first attempt, each after an
        exponential backoff (``repro.parallel.pool.BACKOFF_BASE``); an
        exhausted chunk degrades to a serial re-run in the parent.
    fault_spec:
        Deterministic fault-injection spec for the recovery paths (see
        :mod:`repro.parallel.faults` for the grammar).  Empty (default)
        means no injection.
    """

    start_method: str = "spawn"
    chunk_timeout: float = 120.0
    max_retries: int = 2
    fault_spec: str = ""

    def __post_init__(self) -> None:
        if self.start_method not in MP_START_METHODS:
            raise ConfigError(
                f"start_method must be one of {list(MP_START_METHODS)}, "
                f"got {self.start_method!r}"
            )
        if self.chunk_timeout <= 0:
            raise ConfigError(
                f"chunk_timeout must be > 0, got {self.chunk_timeout}"
            )
        if self.max_retries < 0:
            raise ConfigError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        # Fail fast on a malformed fault spec — at config time, in the
        # parent, not mid-run inside a worker.
        parse_fault_spec(self.fault_spec)


@dataclass
class TelemetryConfig:
    """Live telemetry plane knobs (off by default, zero-cost when off).

    Attributes
    ----------
    enabled:
        Turn on the live plane: pool workers send their whole metric
        snapshot as heartbeats on their task pipes, the pool's event loop
        feeds them to a parent-side
        :class:`~repro.observability.livestream.TelemetryAggregator`, and
        the Engine serves its live ``repro.metrics/v2`` document over HTTP.
        SNP calls are byte-identical with telemetry on or off — the live
        registry is separate from the authoritative result-path metrics.
    interval:
        Worker publish period in seconds while a chunk is in flight; each
        chunk also sends one final snapshot with its result.  Smaller
        means fresher dashboards at slightly more pipe traffic.
    host, port:
        Bind address for the HTTP endpoint.  ``port=0`` (default)
        picks an ephemeral port (read it from ``Engine.telemetry_url``);
        ``port=None`` disables the HTTP endpoint while keeping the
        in-process aggregator live (``repro top`` needs the endpoint).
    """

    enabled: bool = False
    interval: float = 1.0
    host: str = "127.0.0.1"
    port: "int | None" = 0

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ConfigError(
                f"telemetry interval must be > 0, got {self.interval}"
            )
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ConfigError(
                f"telemetry port must be in [0, 65535] or None, got {self.port}"
            )


@dataclass
class PipelineConfig:
    """Everything the GNUMAP-SNP driver needs besides the data.

    Attributes
    ----------
    k:
        Index mer-size, and so the width of the seeds reads are queried
        with (paper default 10; ``k=20`` is SNAP-style long seeding).  The
        index is one table: ``seeder.seed_len``, where set, replaces ``k``
        as its width (:func:`repro.index.hashindex.table_width`).
    pad:
        Genome bases added on each side of a candidate window so the
        semi-global PHMM can slide and open edge gaps.
    batch_size:
        Target number of (read, window) pairs per alignment batch; batches
        always end on read boundaries so mapping weights normalise within
        one batch.
    accumulator:
        "NORM", "CHARDISC" or "CENTDISC".
    edge_policy:
        z-vector edge handling, "mass" (default) or "paper" — see
        :mod:`repro.phmm.posterior`.
    min_ratio:
        Candidate locations below this likelihood ratio vs the read's best
        location are dropped from the multiread weighting.
    quality_aware:
        When False, PWMs collapse to the called base (ablation of the
        paper's quality extension).
    posterior_mode:
        "marginal" (default — the paper's forward-backward z-vectors over
        *all* alignments and locations) or "viterbi" (ablation: evidence
        from the single best alignment at the single best location, the
        philosophy of conventional mappers).
    band_mode:
        "off" (default — full O(N*M) fills) or "adaptive" (fill only a
        band of half-width ``band_w`` around each candidate's seed
        diagonal; pairs whose posterior band-edge mass exceeds
        ``band_tolerance`` re-run unbanded — see :mod:`repro.phmm.banded`).
        Banding applies to the marginal posterior path; the viterbi
        ablation always runs full matrices.
    band_w:
        Band half-width in window columns; a row covers ``2*band_w + 1``
        columns.  Must comfortably exceed the seeder's ``diagonal_slack``
        plus the indel drift you expect inside one read.
    band_tolerance:
        Escape threshold for ``band_mode="adaptive"``: the fraction of a
        read's posterior match mass allowed on band-created edge cells
        before the pair is re-run full-width.
    parallel:
        Parallel-execution sub-config (:class:`ParallelConfig`): start
        method and per-chunk fault tolerance.
    telemetry:
        Live telemetry plane sub-config (:class:`TelemetryConfig`):
        worker metric streaming, stall watchdog and the HTTP endpoint.
        Off by default; never affects call results.
    """

    k: int = 10
    pad: int = 8
    batch_size: int = 512
    accumulator: str = "NORM"
    edge_policy: str = "mass"
    min_ratio: float = 1e-4
    quality_aware: bool = True
    posterior_mode: str = "marginal"
    band_mode: str = "off"
    band_w: int = 10
    band_tolerance: float = 1e-4
    # Not fields: ledger/replay.py is the sole reader of these three constants.
    alignment_mode: ClassVar[str] = "semiglobal"
    phmm_kernel: ClassVar[str] = "rowsweep"
    phmm_dtype: ClassVar[str] = "float64"
    # Not a field: nothing sets it (``GenomeIndex`` takes the value).
    max_index_positions_per_kmer: ClassVar[int] = 64
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    telemetry: TelemetryConfig = field(default_factory=TelemetryConfig)
    phmm: PHMMParams = field(default_factory=PHMMParams)
    seeder: SeederConfig = field(default_factory=SeederConfig)
    caller: CallerConfig = field(default_factory=CallerConfig)

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ConfigError(f"k must be >= 1, got {self.k}")
        if self.pad < 0:
            raise ConfigError(f"pad must be >= 0, got {self.pad}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.accumulator.upper() not in (
            "NORM", "CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED",
        ):
            raise ConfigError(f"unknown accumulator {self.accumulator!r}")
        if self.edge_policy not in ("mass", "paper"):
            raise ConfigError(f"unknown edge_policy {self.edge_policy!r}")
        if not 0.0 <= self.min_ratio < 1.0:
            raise ConfigError(f"min_ratio must be in [0, 1), got {self.min_ratio}")
        if self.posterior_mode not in ("marginal", "viterbi"):
            raise ConfigError(f"unknown posterior_mode {self.posterior_mode!r}")
        if self.band_mode not in ("off", "adaptive"):
            raise ConfigError(
                f"band_mode must be 'off' or 'adaptive', got {self.band_mode!r}"
            )
        if self.band_w < 1:
            raise ConfigError(f"band_w must be >= 1, got {self.band_w}")
        if not 0.0 <= self.band_tolerance < 1.0:
            raise ConfigError(
                f"band_tolerance must be in [0, 1), got {self.band_tolerance}"
            )

    @property
    def banding(self) -> bool:
        """Whether the marginal alignment path runs banded kernels."""
        return self.band_mode != "off" and self.posterior_mode == "marginal"
