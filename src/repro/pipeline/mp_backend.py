"""Real ``multiprocessing`` backend for the read-spread mode.

The simulated cluster measures *modelled* speedup; this backend is the real
thing for machines that have the cores.  It is the serial program with a
second executor: reads are chunked across worker processes, each worker
runs :meth:`GnumapSnp.map_batches` (steps A-B) over its chunk, weighs each
batch and ships the ``(PairEvidence, weights)`` home with the chunk's metrics
snapshot (whose ``pipeline.*`` counters are its mapping counts; nothing else
counts them), and the parent deposits them, in chunk order, into the
**one** accumulator the caller owns — every
position receives the contributions a serial run gives it, in the same read
order (:func:`repro.pipeline.evidence.deposit`; batch boundaries may differ).
No worker allocates, ships or merges an accumulator, so SNP calls and the
accumulator are byte-identical to serial at any worker count and under all
three memory modes
(``tests/pipeline/test_mp_backend.py::TestSerialPoolContract``).

Execution is **fault tolerant** (see :mod:`repro.parallel.pool`): chunks
are dispatched asynchronously with a per-chunk timeout, every chunk's
evidence is validated in the parent before it is accepted, worker deaths,
remote errors and rejected evidence are retried with exponential backoff,
and a chunk that exhausts its retries is mapped serially in the parent at
its place in the chunk order — the run always completes, with the same
bytes, and every recovery is visible in the metrics
(``mp.chunk_retries``, ``mp.chunk_timeouts``, ``mp.worker_deaths``,
``mp.chunk_errors``, ``mp.partial_rejects``, ``mp.worker_init_errors``,
``mp.serial_fallbacks``).
Recovery paths are testable via deterministic fault injection
(:mod:`repro.parallel.faults`; ``ParallelConfig.fault_spec``, the CLI's
``--fault-spec``).

Workers are provisioned one way (:func:`make_pool`): the parent publishes
genome codes and the index's arrays as shared-memory segments once per
:class:`repro.parallel.pool.PersistentPool`, and every worker — including
one respawned after a crash — attaches zero-copy views in
:func:`_init_pool_worker` (``mp.worker_attach_seconds`` measures the cost).

The start method is pinned explicitly (``ParallelConfig.start_method``,
default ``"spawn"``) so span-stack and sanitizer-propagation semantics never
depend on what a prior caller or the platform happened to set.

Known limit: the parent holds one dispatch round's evidence (~3.2 kB per
pair at 62 bp) until the round ends; depositing chunks as they arrive, in
chunk order, would bound that by the in-flight window.
"""

from __future__ import annotations

import multiprocessing as mp
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

import repro.observability.trace as trace
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.memory.base import Accumulator
from repro.observability import current, detached, merge_snapshots, scope, span
from repro.observability.snapshot import MetricsSnapshot
from repro.parallel.faults import FaultPlan, corrupt_buffers, parse_fault_spec
from repro.parallel.partition import partition_reads_contiguous
from repro.parallel.pool import PersistentPool
from repro.parallel.shm import attach_array
from repro.phmm import sanitize
from repro.phmm.alignment import LANE_TILE
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairEvidence
from repro.pipeline.gnumap import GnumapSnp

if TYPE_CHECKING:  # pragma: no cover - typing only
    from multiprocessing.shared_memory import SharedMemory

    from repro.observability.livestream import TelemetryAggregator
    from repro.parallel.shm import SharedArraySpec

#: Most chunks per worker in a dispatch round, once a chunk can still fill a
#: lane tile: from ``workers * CHUNKS_PER_WORKER * LANE_TILE`` reads (2,048
#: at two workers) one recovery costs a quarter of a worker's share and a
#: slow chunk leaves the others something to take; below that a recovery
#: recomputes up to a whole share.
CHUNKS_PER_WORKER = 4
#: Reads per chunk at most, whatever the input size: keeps one chunk's
#: compute (~1 s at 2 k reads/s) well under ``chunk_timeout``, so a retry
#: refunds a bounded slice of work, and bounds one result message.
MAX_CHUNK_READS = 2048


@dataclass
class _WorkerState:
    """What :func:`_init_pool_worker` builds once per worker process (so the
    reference is never re-pickled per chunk, and every chunk reuses the
    pipeline's one DP workspace) and hands every :func:`_map_chunk`."""

    pipe: GnumapSnp
    faults: FaultPlan
    # Alive as long as the views (closing unmaps the buffer); only the
    # publishing parent unlinks (see repro.parallel.shm).
    shm_handles: "list[SharedMemory]"
    # One-shot attach cost: the first chunk ships it home and clears it.
    attach_seconds: "float | None"


def _init_pool_worker(
    specs: "dict[str, SharedArraySpec]",
    ref_name: str,
    config: PipelineConfig,
    index_scalars: "dict[str, int | None]",
    fault_plan: FaultPlan,
) -> _WorkerState:
    """Attach-mode initializer for :class:`PersistentPool` workers.

    The worker gets the publication map and wraps zero-copy read-only
    views over the parent's shared segments — genome codes plus whatever
    arrays :meth:`GenomeIndex.shared_state` published — then rehydrates the
    pipeline around them without any index rebuild.  A respawned worker
    runs this again: re-attaching costs an ``mmap``, which is what makes
    crash recovery cheap.

    The parent's fault plan arrives as an argument; its sanitizer and
    tracing switches ride each chunk (:func:`_map_chunk`).
    """
    trace.set_process_label("worker")
    started = time.perf_counter()
    views = {}
    handles = []
    for key, spec in specs.items():
        view, shm = attach_array(spec)
        views[key] = view
        handles.append(shm)
    reference = Reference(views.pop("ref_codes"), name=ref_name, copy=False)
    # Every other segment is the index's; only hashindex.py knows which.
    index = GenomeIndex.from_arrays(reference, **views, **index_scalars)
    pipe = GnumapSnp(reference, config, index=index)
    return _WorkerState(pipe, fault_plan, handles, time.perf_counter() - started)


def _map_chunk(
    state: _WorkerState,
    payload: "tuple[list, list, list, bool, bool]",
    chunk_id: int,
    attempt: int,
) -> "tuple[list[tuple[PairEvidence, np.ndarray]], MetricsSnapshot]":
    codes_list, quals_list, names, sanitize_on, trace_on = payload
    # The parent's sanitizer and tracing switches as of this run are the
    # worker's only source for them: each is set either way, so neither the
    # environment nor a forked copy of the parent's module state (nor an
    # earlier run's switches) can disagree with the parent.
    (sanitize.enable if sanitize_on else sanitize.disable)()
    (trace.enable if trace_on else trace.disable)()
    pipe, plan = state.pipe, state.faults
    # Deterministic injection point: crash/hang before any work, keyed by
    # (chunk, attempt) so retries of a transient fault succeed.
    plan.inject_pre_compute(chunk_id, attempt)
    reads = [
        Read(name=n, codes=c, quals=q)
        for n, c, q in zip(names, codes_list, quals_list)
    ]
    # The scope isolates this chunk's metrics (its ``pipeline.*`` counts
    # included); the snapshot travels home by pickle and the parent folds
    # all workers into one coherent tree.
    # detached(): forked workers inherit the parent's open span path (spawned
    # ones don't) — root the chunk's spans either way.
    with detached(), scope() as reg:
        if state.attach_seconds is not None:
            # Ships home with this worker's first chunk snapshot.
            reg.observe("mp.worker_attach_seconds", state.attach_seconds)
            state.attach_seconds = None
        trace.instant("mp.chunk_begin", chunk=chunk_id, attempt=attempt)
        started = time.perf_counter()
        with span("map_reads"):
            batches = [(ev, pipe.weigh(ev.loglik, ev.groups)) for ev in pipe.map_batches(reads)]
        reg.observe("mp.chunk_map_seconds", time.perf_counter() - started)
        snapshot = reg.snapshot()
    if batches and plan.corrupts(chunk_id, attempt):
        evidence, weights = batches[0]
        # First float field is z: the NaN lands in the shipped evidence.
        batches[0] = (PairEvidence(**corrupt_buffers(vars(evidence))), weights)
    return batches, snapshot


def _validate_chunk(
    chunk_id: int,
    result: "tuple[list[tuple[PairEvidence, np.ndarray]], MetricsSnapshot]",
) -> None:
    """Parent-side check of one chunk's evidence before it is accepted:
    evidence corrupted in a worker (or in transit) is rejected *here*,
    attributed to its chunk, and retried — never deposited."""
    for evidence, weights in result[0]:
        sanitize.check_partial(evidence.z, chunk_id)
        sanitize.check_partial(weights, chunk_id)


def make_pool(
    pipe: GnumapSnp,
    n_workers: int,
    telemetry: "TelemetryAggregator | None" = None,
) -> PersistentPool:
    """Build a :class:`PersistentPool` for ``pipe``'s genome and config.

    The genome codes and the index's arrays are published as shared segments
    and workers run the attach-mode initializer; ``pipe``'s own index then
    reads the published arrays too, through views that outlive the pool.
    The caller owns the pool: ``Engine`` keeps it for its lifetime and
    ``close()`` releases workers and segments.

    ``telemetry`` (optional, the Engine wires it from ``TelemetryConfig``)
    makes every pool worker send live metric snapshots on its task pipe,
    which the pool's event loop hands to the given aggregator.
    """
    config = pipe.config
    par = config.parallel
    reference = pipe.reference
    plan = parse_fault_spec(par.fault_spec)
    ctx = mp.get_context(par.start_method)
    index_arrays, index_scalars = pipe.index.shared_state()
    pool = PersistentPool(
        ctx,
        n_workers,
        _map_chunk,
        {"ref_codes": np.asarray(reference.codes), **index_arrays},
        initializer=_init_pool_worker,
        initargs=(reference.name, config, index_scalars, plan),
        timeout=par.chunk_timeout,
        max_retries=par.max_retries,
        validate=_validate_chunk,
        telemetry=telemetry,
    )
    # The parent seeds only on a serial fallback: its index reads the
    # published copy too, so it keeps no second, private table.
    views = {key: pool.view(key) for key in index_arrays}
    pipe.use_index(GenomeIndex.from_arrays(reference, **views, **index_scalars))
    return pool


def chunk_count(n_reads: int, workers: int) -> int:
    """Chunks in one dispatch round: ``workers * clamp(n_reads // (workers *
    LANE_TILE), 1, CHUNKS_PER_WORKER)``, so a chunk holds a lane tile's worth
    of reads and a worker's kernel calls run tiles as wide as serial's; at
    most one per read, and more when that would put over
    ``MAX_CHUNK_READS`` reads in a chunk."""
    per_worker = min(max(n_reads // (workers * LANE_TILE), 1), CHUNKS_PER_WORKER)
    tiled = min(n_reads, workers * per_worker)
    return max(tiled, -(-n_reads // MAX_CHUNK_READS))


def map_reads_multiprocessing(
    pipe: GnumapSnp,
    reads: "list[Read]",
    pool: PersistentPool,
    accumulator: "Accumulator | None" = None,
) -> Accumulator:
    """:meth:`GnumapSnp.map_reads` over ``pool``'s warm fleet: same
    arguments, same accumulator bytes, with fault tolerance.

    The mapping core behind :class:`~repro.api.Engine`'s verbs at
    ``workers > 1`` (and through them the online chunked feed): partitions
    the reads into :func:`chunk_count` contiguous chunks, streams them over
    the pool's fault-tolerant event loop, and deposits the chunks' evidence
    into ``accumulator`` (a fresh one when ``None``) in chunk order — a
    chunk missing from the pool's results ran out of retries and is mapped
    serially, into the same accumulator, when its turn comes.  What failed
    along the way
    and how the reads were chunked change latency, never a byte.

    Counters and spans land in the *current* observability registry: each
    chunk's ``pipeline.*`` counts arrive in its worker's snapshot (or are
    counted here on a serial fallback), so they sum to serial's.
    Fewer than two reads run serially with an explicit
    ``mp.serial_fallbacks`` counter and an effective-worker gauge of 1, so
    metrics consumers can always distinguish "ran serial" from "parallel
    with no overhead".
    """
    n_workers = pool.n_workers
    reg = current()

    if len(reads) < 2:
        reg.inc("mp.serial_fallbacks")
        reg.gauge_max("mp.workers_effective", 1)
        return pipe.map_reads(reads, accumulator)

    acc = pipe.accumulator_or_new(accumulator)
    n_chunks = chunk_count(len(reads), n_workers)
    chunk_reads = [
        reads[part.start : part.stop]
        for part in partition_reads_contiguous(len(reads), n_chunks)
    ]
    switches = (sanitize.enabled(), trace.enabled())
    payloads = [
        ([r.codes for r in part], [r.quals for r in part], [r.name for r in part], *switches)
        for part in chunk_reads
    ]

    with span("map_parallel"):
        results = pool.run(payloads)

        # Deposit in chunk order — the serial run's read order, whatever
        # the completion order, retries, or chunks degraded to the parent.
        worker_snaps = []
        for cid in range(n_chunks):
            if cid in results:
                batches, snapshot = results.pop(cid)
                for evidence, weights in batches:
                    pipe.accumulate(acc, evidence, weights)
                worker_snaps.append(snapshot)
            else:
                # Retries exhausted: degrade gracefully — map this chunk
                # serially in the parent so the run still completes with
                # identical output.  Loud, never silent.
                trace.instant("mp.serial_fallback", chunk=cid)
                with span("serial_fallback"):
                    started = time.perf_counter()
                    pipe.map_reads(chunk_reads[cid], acc)
                    reg.observe(
                        "mp.chunk_map_seconds", time.perf_counter() - started
                    )
                reg.inc("mp.serial_fallbacks")
        if worker_snaps:
            # One associative fold, then one coherent tree in this process.
            reg.absorb(merge_snapshots(*worker_snaps))
        reg.gauge_max("mp.workers", n_workers)
        # Effective parallelism: requested workers capped by chunk count
        # (n_workers > n_chunks leaves the surplus idle).
        reg.gauge_max("mp.workers_effective", min(n_workers, n_chunks))
    return acc
