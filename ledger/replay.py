"""Layer-by-layer replay of one ``Engine.run`` repetition, from outside.

The program has no per-layer clock finer than ``seed`` / ``align`` /
``accumulate``, and this benchmark may not add one inside it.  So the
replay re-implements the orchestration of ``GnumapSnp.map_reads`` and
``_align_and_accumulate`` here, calling the same public functions of each
``repro`` package in the same order on the same inputs, with an in-memory
span around every call.  The replay's accumulator must be bit-equal to the
engine's; the caller voids the layer table otherwise.

Layers are named after the ``src/repro`` packages: ``genome``, ``index``,
``phmm``, ``memory``, ``calling``; ``pipeline`` is the orchestration itself.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, batch id]``.

    ``span`` objects are re-entrant context managers kept deliberately
    small: two clock reads and one list append per span, so tracing the
    ~2 spans per read stays far below the layer times it measures.
    """

    def __init__(self) -> None:
        self.spans: "list[list[Any]]" = []
        self._open: "list[int]" = []

    def span(self, name: str, batch: "int | None" = None) -> "_Span":
        return _Span(self, name, batch)

    def total(self, name: str) -> float:
        """Inclusive seconds of every span called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def as_json(self) -> "list[dict[str, Any]]":
        return [
            {"name": n, "start": a, "end": b, "parent": p, "batch": k}
            for n, a, b, p, k in self.spans
        ]


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: Tracer, name: str, batch: "int | None") -> None:
        self.tracer = tracer
        parent = tracer._open[-1] if tracer._open else None
        self.record = [name, 0.0, 0.0, parent, batch]

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer._open.append(len(tracer.spans))
        tracer.spans.append(self.record)
        self.record[1] = time.perf_counter()

    def __exit__(self, *exc: object) -> None:
        self.record[2] = time.perf_counter()
        self.tracer._open.pop()


@dataclass
class Replay:
    """What one traced replay produced."""

    tracer: Tracer
    wall: float
    evidence: np.ndarray
    calls: bytes
    counters: "dict[str, float]"
    n_reads: int
    n_pairs: int
    n_batches: int
    n_recalled: int
    positions: int
    split_kernels: bool
    accumulator: Any


def build_pipeline(ref_path: Path, config: Any, tracer: Tracer) -> "dict[str, Any]":
    """The set-up layers, each under its own span: FASTA parse, index build."""
    from repro.calling.caller import SNPCaller
    from repro.genome.fasta import read_fasta
    from repro.genome.reference import Reference
    from repro.index.hashindex import GenomeIndex
    from repro.index.seeding import Seeder

    with tracer.span("genome.fasta_parse"):
        records = read_fasta(str(ref_path))
    name, codes = next(iter(records.items()))
    reference = Reference(codes, name=name)
    with tracer.span("index.build"):
        index = GenomeIndex(
            reference,
            k=config.k,
            max_positions_per_kmer=config.max_index_positions_per_kmer,
            seed_len=config.seeder.seed_len,
        )
    return {
        "reference": reference,
        "index": index,
        "seeder": Seeder(index, config.seeder),
        "caller": SNPCaller(config.caller),
    }


def replay_repetition(
    parts: "dict[str, Any]",
    config: Any,
    reads_path: Path,
    out_path: Path,
    origins: "list[tuple[int, int]]",
) -> Replay:
    """One repetition — parse, map, call, write — with a span per layer call.

    Mirrors ``GnumapSnp.map_reads`` for the configurations the ledger's
    workloads use (marginal posteriors, quality-aware PWMs).  With banding
    off, ``align_batch`` is unrolled into its five public kernels so each
    gets its own span; the unrolled sequence is the body of ``align_batch``
    and yields bit-identical z.
    """
    from repro.calling.records import write_snp_calls
    from repro.genome.fastq import read_fastq
    from repro.memory.base import make_accumulator
    from repro.observability import scope
    from repro.phmm.alignment import align_batch, align_batch_banded, build_windows
    from repro.phmm.pwm import pwm_from_read, reverse_complement_pwm
    from repro.phmm.scoring import group_normalize

    if config.posterior_mode != "marginal" or not config.quality_aware:
        raise ValueError("the replay covers marginal, quality-aware configs only")
    kernels = None if config.banding else _full_kernels()
    reference, seeder, caller = parts["reference"], parts["seeder"], parts["caller"]
    genome = reference.codes
    pad, slack = config.pad, config.seeder.diagonal_slack
    dense = config.accumulator.upper() == "NORM"
    tracer = Tracer()
    span = tracer.span
    n_pairs = n_batches = n_recalled = 0

    pwms: "list[np.ndarray]" = []
    starts: "list[int]" = []
    groups: "list[int]" = []
    centers: "list[int]" = []

    def flush() -> None:
        nonlocal n_batches, pwms, starts, groups, centers
        if not pwms:
            return
        k = n_batches
        with span("pipeline.batch", k):
            b_pwms = np.stack(pwms)
            b_starts = np.asarray(starts, dtype=np.int64)
            b_groups = np.asarray(groups, dtype=np.int64)
            b_centers = np.asarray(centers, dtype=np.int64)
        width = b_pwms.shape[1] + 2 * pad
        with span("phmm.windows", k):
            windows, valid = build_windows(genome, b_starts - pad, width)
        with span("phmm.align", k):
            if config.banding:
                outcome = align_batch_banded(
                    b_pwms, windows, config.phmm, b_centers, config.band_w,
                    tolerance=config.band_tolerance,
                    adaptive=config.band_mode == "adaptive",
                    mode=config.alignment_mode, edge_policy=config.edge_policy,
                    valid=valid, groups=b_groups,
                    escape_min_ratio=config.min_ratio,
                    kernel=config.phmm_kernel, dtype=config.phmm_dtype,
                )
                z, loglik = outcome.z, outcome.loglik
            elif kernels is None:
                outcome = align_batch(
                    b_pwms, windows, config.phmm, mode=config.alignment_mode,
                    edge_policy=config.edge_policy, valid=valid,
                    kernel=config.phmm_kernel, dtype=config.phmm_dtype,
                )
                z, loglik = outcome.z, outcome.loglik
            else:
                emissions, forward, backward, posteriors, z_vectors = kernels
                with span("phmm.emissions", k):
                    pstar = emissions(b_pwms, windows, config.phmm)
                with span("phmm.forward", k):
                    fwd = forward(pstar, config.phmm, mode=config.alignment_mode)
                with span("phmm.backward", k):
                    bwd = backward(pstar, config.phmm, mode=config.alignment_mode)
                with span("phmm.posterior", k):
                    post = posteriors(pstar, b_pwms, windows, fwd, bwd, config.phmm)
                with span("phmm.zvec", k):
                    z = z_vectors(post, edge_policy=config.edge_policy)
                    z = z * valid[:, :, None]
                loglik = fwd.loglik
        with span("phmm.normalize", k):
            weights = group_normalize(loglik, b_groups, min_ratio=config.min_ratio)
        with span("memory.add", k):
            zw = z * weights[:, None, None]
            cols = (b_starts - pad)[:, None] + np.arange(width)[None, :]
            live = valid & (weights[:, None] > 0)
            if dense:
                mask = live.ravel()
                acc.add(cols.ravel()[mask], zw.reshape(-1, 5)[mask])
            else:
                for b in range(b_pwms.shape[0]):
                    m = live[b]
                    if m.any():
                        acc.add(cols[b][m], zw[b][m])
        n_batches += 1
        pwms, starts, groups, centers = [], [], [], []

    with scope() as registry:
        t0 = time.perf_counter()
        with span("genome.fastq_parse"):
            reads = read_fastq(str(reads_path))
        acc = make_accumulator(config.accumulator, len(reference))
        read_len = None
        for ridx, read in enumerate(reads):
            with span("index.seed"):
                candidates = seeder.candidates(read)
            if not candidates:
                continue
            n_pairs += len(candidates)
            if read_len is not None and len(read) != read_len:
                flush()
            read_len = len(read)
            with span("phmm.pwm"):
                pwm_fwd = pwm_from_read(read)
                pwm_rc = None
                if any(c.strand == -1 for c in candidates):
                    pwm_rc = reverse_complement_pwm(pwm_fwd)
            for cand in candidates:
                pwms.append(pwm_fwd if cand.strand == 1 else pwm_rc)
                starts.append(cand.start)
                groups.append(ridx)
                centers.append(pad + (cand.band_diagonal - cand.start))
            if len(pwms) >= config.batch_size:
                flush()
            # Bookkeeping for index.seed_recall; two integer compares per
            # candidate, counted as orchestration glue.
            true_pos, true_strand = origins[ridx]
            n_recalled += any(
                c.strand == true_strand and abs(c.start - true_pos) <= slack
                for c in candidates
            )
        flush()
        with span("memory.snapshot"):
            evidence = acc.snapshot()
        with span("calling.lrt"):
            snps = caller.snps(evidence, genome)
        with span("calling.write"):
            write_snp_calls(str(out_path), snps)
        wall = time.perf_counter() - t0
        counters = dict(registry.snapshot().counters)

    return Replay(
        tracer=tracer,
        wall=wall,
        evidence=evidence,
        calls=out_path.read_bytes(),
        counters=counters,
        n_reads=len(reads),
        n_pairs=n_pairs,
        n_batches=n_batches,
        n_recalled=n_recalled,
        positions=len(reference),
        split_kernels=kernels is not None,
        accumulator=acc,
    )


def _full_kernels() -> "tuple[Any, ...] | None":
    """The five public kernels ``align_batch`` is made of, or ``None`` when
    a refactor has removed one (the replay then times the whole call)."""
    try:
        from repro.phmm.forward_backward import (
            backward_batch,
            emissions_batch,
            forward_batch,
        )
        from repro.phmm.posterior import posteriors_batch, z_vectors
    except ImportError:
        return None
    return emissions_batch, forward_batch, backward_batch, posteriors_batch, z_vectors


def seeding_by_difference(
    parts: "dict[str, Any]", config: Any, reads: "list[Any]"
) -> "dict[str, float]":
    """Split ``index.seed`` into lookup / cluster / filter, by difference.

    ``Seeder.candidates`` is one public call, so its inside is priced by
    two more passes over the same reads on the same index: the bare
    ``rolling_kmers`` + ``lookup_seeds_flat`` pass, and a ``Seeder`` with
    the q-gram filter switched off.  filter = filter-on minus filter-off;
    cluster = filter-off minus lookup (diagonal voting, clustering, sort).
    Returned as shares of the filter-on pass.
    """
    import dataclasses

    from repro.genome.alphabet import reverse_complement
    from repro.index.kmer import rolling_kmers
    from repro.index.seeding import Seeder
    from repro.observability import scope

    index = parts["index"]
    width, step = index.seed_width, config.seeder.step

    t0 = time.perf_counter()
    for read in reads:
        for codes in (read.codes, reverse_complement(read.codes)):
            packed, valid = rolling_kmers(codes, width)
            offsets = np.arange(packed.size)[::step]
            offsets = offsets[valid[offsets]]
            index.lookup_seeds_flat(packed[offsets])
    lookup_s = time.perf_counter() - t0

    def timed_pass(seeder: Any) -> "tuple[float, float]":
        with scope() as registry:
            t0 = time.perf_counter()
            for read in reads:
                seeder.candidates(read)
            seconds = time.perf_counter() - t0
            found = registry.snapshot().counters.get("seed.candidates", 0.0)
        return seconds, float(found)

    unfiltered = Seeder(index, dataclasses.replace(config.seeder, qgram_filter=False))
    off_s, off_found = timed_pass(unfiltered)
    if config.seeder.qgram_filter:
        on_s, on_found = timed_pass(parts["seeder"])
    else:
        on_s, on_found = off_s, off_found
    # Shares of one Seeder.candidates pass, so that the three parts add up
    # to the replay's own index.seed_s whatever the machine did meanwhile.
    return {
        "lookup": min(lookup_s / on_s, 1.0),
        "cluster": max(off_s - lookup_s, 0.0) / on_s,
        "filter": max(on_s - off_s, 0.0) / on_s,
        "filter_pass_rate": on_found / off_found if off_found else 1.0,
    }


def merge_seconds(accumulator: Any, repeats: int = 5) -> float:
    """Median seconds of ``Accumulator.merge`` on two copies of the run's
    accumulator — the parent-side reduction step of the parallel path."""
    kind, length = type(accumulator), accumulator.length
    samples = []
    for _ in range(repeats):
        a = kind.from_buffers(length, accumulator.to_buffers())
        b = kind.from_buffers(length, accumulator.to_buffers())
        t0 = time.perf_counter()
        a.merge(b)
        samples.append(time.perf_counter() - t0)
    return sorted(samples)[len(samples) // 2]
