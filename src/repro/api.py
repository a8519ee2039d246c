"""The public facade: one entry point for mapping and SNP calling.

:class:`Engine` binds a reference genome and a
:class:`~repro.pipeline.config.PipelineConfig` once, exposes the pipeline's
three verbs, and runs them serially (``workers == 1``) or over its worker
pool.

    from repro.api import Engine

    with Engine(reference, workers=4) as engine:   # or Engine.from_fasta(...)
        result = engine.run(reads)                 # map + call, one CallResult
        for snp in result.snps:
            print(snp.pos, snp.ref_name, "->", snp.alt_name)

With ``workers > 1`` the engine owns a **persistent shared-memory worker
pool** (:class:`repro.parallel.pool.PersistentPool`): workers spawn once,
the genome and index are published as shared-memory segments the workers
map zero-copy, and every ``run``/``map_reads`` call reuses the warm fleet.
Workers return per-read evidence and the engine's process owns the only
accumulator, so calls are byte-identical at any worker count.
The context manager (or an explicit ``close()``) releases the workers and
unlinks the segments; an engine used without ``with`` still cleans up
through an atexit crash net, but deterministic teardown is the idiom.

Staged use — accumulate evidence over several read batches (online / sharded
ingest), then call once::

    engine.map_reads(batch_a)
    engine.map_reads(batch_b)        # same accumulator keeps filling
    result = engine.call()

Worker count is the constructor's ``workers=`` keyword (the CLI passes
``--workers`` to it); the ``workers`` property reads it back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.memory.base import Accumulator
from repro.observability import scope
from repro.observability.snapshot import MetricsSnapshot
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import CallResult, GnumapSnp, MappingStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.observability.endpoint import TelemetryEndpoint
    from repro.observability.livestream import TelemetryAggregator
    from repro.parallel.pool import PersistentPool

__all__ = ["CallResult", "Engine", "MappingStats"]


class Engine:
    """The one public entry point: a reference genome bound to a config.

    Construction builds the k-mer index once; ``map_reads``/``call``/``run``
    reuse it.  The engine owns an evidence accumulator so mapping can be
    staged across calls; ``run`` is stateless (fresh accumulator per call)
    and is the right verb for one-shot batch work.

    With ``workers > 1`` the engine also owns a persistent shared-memory
    worker pool, created lazily on the first parallel call and reused until
    ``close()``/``__exit__``.  The process-wide sanitizer/tracing flags
    ride each chunk, so a flip between runs reaches the same fleet.
    """

    def __init__(
        self,
        reference: Reference,
        config: PipelineConfig | None = None,
        *,
        workers: int = 1,
    ):
        self.config = config or PipelineConfig()
        if workers < 1:
            raise PipelineError(f"workers must be >= 1, got {workers}")
        self._workers = workers
        self._pipeline = GnumapSnp(reference, self.config)
        self._accumulator: Accumulator | None = None
        self._metrics = MetricsSnapshot.empty()
        self._pool: "PersistentPool | None" = None
        self._telemetry: "TelemetryAggregator | None" = None
        self._endpoint: "TelemetryEndpoint | None" = None
        if self.config.telemetry.enabled:
            # Eager, so telemetry_url is scrapeable before the first run.
            self._ensure_telemetry()

    @classmethod
    def from_fasta(
        cls,
        path: str,
        config: PipelineConfig | None = None,
        *,
        workers: int = 1,
    ) -> "Engine":
        """Build an engine from a single-record reference FASTA file."""
        from repro.genome.fasta import read_fasta

        records = read_fasta(path)
        if len(records) != 1:
            raise PipelineError(
                f"expected a single-record reference FASTA, got {len(records)}"
            )
        name, codes = next(iter(records.items()))
        return cls(Reference(codes, name=name), config, workers=workers)

    @property
    def reference(self) -> Reference:
        return self._pipeline.reference

    @property
    def pipeline(self) -> GnumapSnp:
        """The underlying serial pipeline (index, seeder, caller)."""
        return self._pipeline

    # -- resource lifecycle -----------------------------------------------------
    @property
    def workers(self) -> int:
        """Worker-process count used by ``map_reads``/``run``."""
        return self._workers

    @property
    def telemetry(self) -> "TelemetryAggregator | None":
        """The live telemetry aggregator (None when telemetry is off)."""
        return self._telemetry

    @property
    def telemetry_url(self) -> "str | None":
        """URL of the live ``repro.metrics/v2`` document (None when no
        endpoint is live)."""
        if self._endpoint is None:
            return None
        return self._endpoint.url

    def _ensure_telemetry(self) -> "TelemetryAggregator | None":
        """The live aggregator (plus endpoint), building them on demand.

        Returns ``None`` when ``config.telemetry.enabled`` is off — the
        telemetry plane then costs nothing: no socket, no heartbeats, and
        workers start no publisher thread.
        """
        cfg = self.config.telemetry
        if not cfg.enabled:
            return None
        if self._telemetry is None:
            from repro.observability.livestream import TelemetryAggregator

            self._telemetry = TelemetryAggregator(interval=cfg.interval)
        if self._endpoint is None and cfg.port is not None:
            import json

            from repro.observability.endpoint import TelemetryEndpoint

            aggregator = self._telemetry
            self._endpoint = TelemetryEndpoint(
                lambda: json.dumps(aggregator.live_document()),
                host=cfg.host,
                port=cfg.port,
            )
            self._endpoint.start()
        return self._telemetry

    def close(self) -> None:
        """Release the worker pool, its shared-memory segments and the
        telemetry endpoint, and drop the aggregator (it owns no thread or
        pipe, so there is nothing else to stop).

        Idempotent, and the engine stays usable afterwards — the next
        parallel call simply builds a fresh pool (and, with telemetry
        enabled, a fresh aggregator/endpoint).  Serial state (accumulator,
        index) is untouched; use :meth:`reset` for that.
        """
        # Pool first, so the reaped workers' last snapshots land in the
        # aggregator; then the endpoint that serves it.
        self._teardown_pool()
        if self._endpoint is not None:
            self._endpoint.close()
            self._endpoint = None
        self._telemetry = None

    def __enter__(self) -> "Engine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _teardown_pool(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def _map(
        self, reads: "list[Read]", accumulator: "Accumulator | None" = None
    ) -> Accumulator:
        """Steps A-C into ``accumulator`` (a fresh one when ``None``):
        serially at ``workers == 1``, else over the warm pool, (re)building
        it as needed.

        The sanitizer and tracing switches ride each chunk, so one fleet
        serves runs on either side of a flip.
        """
        if self._workers == 1:
            return self._pipeline.map_reads(reads, accumulator)

        from repro.phmm import sanitize
        from repro.pipeline.mp_backend import make_pool, map_reads_multiprocessing

        if self._pool is not None and self._pool.closed:
            self._teardown_pool()
        if self._pool is None:
            self._pool = make_pool(
                self._pipeline, self._workers, telemetry=self._ensure_telemetry()
            )
        acc = map_reads_multiprocessing(self._pipeline, reads, self._pool, accumulator)
        if sanitize.enabled():
            # Every chunk's evidence was validated on arrival; this checks
            # what the deposits made of it before anyone consumes it.
            sanitize.check_accumulator(acc.snapshot(), where="accumulator.merge")
        return acc

    # -- staged verbs -----------------------------------------------------------
    def map_reads(self, reads: "list[Read]") -> MappingStats:
        """Align ``reads`` and fold their evidence into the engine's
        accumulator; returns the mapping counts of every read mapped since
        the last :meth:`reset`, read from the staged metrics'
        ``pipeline.*`` counters.

        Call repeatedly to accumulate evidence online; ``call()`` consumes
        whatever has been accumulated so far.  With engine ``workers > 1``
        the batch maps across the persistent pool's warm fleet through the
        fault-tolerant event loop (crashes, hangs and corrupted evidence
        are retried, then degraded to a serial re-run — see
        :mod:`repro.pipeline.mp_backend`) and the parent deposits the
        workers' evidence straight into the staged accumulator: any split
        of the reads over feeds and workers leaves the bytes one serial run
        over all of them would.
        """
        with scope() as reg:
            self._accumulator = self._map(reads, self._accumulator)
            self._metrics = self._metrics.merge(reg.snapshot_values())
        return MappingStats.of(self._metrics)

    def call(self) -> CallResult:
        """LRT over the evidence accumulated by ``map_reads`` so far."""
        if self._accumulator is None:
            raise PipelineError("call() before map_reads(): no evidence yet")
        with scope() as reg:
            snps = self._pipeline.call_snps(self._accumulator)
            self._metrics = self._metrics.merge(reg.snapshot_values())
        return CallResult(snps, self._accumulator, self._metrics)

    def reset(self) -> None:
        """Drop accumulated evidence and metrics (start a fresh staged run)."""
        self._accumulator = None
        self._metrics = MetricsSnapshot.empty()

    # -- one-shot verb ----------------------------------------------------------
    def run(self, reads: "list[Read]") -> CallResult:
        """Full pipeline over ``reads`` with a fresh accumulator.

        With engine ``workers > 1`` the mapping runs over the persistent
        pool's warm fleet, with calls and accumulator byte-identical to the
        serial run (:mod:`repro.pipeline.mp_backend`).  Does not touch the
        engine's staged accumulator.
        """
        with scope() as reg:
            acc = self._map(reads)
            snps = self._pipeline.call_snps(acc)
            return CallResult(snps, acc, reg.snapshot_values())
