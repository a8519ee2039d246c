"""One workload, measured in one fresh process.

``run.py`` generates the input files and starts this module as a child
process in a pinned environment (``run.CHILD_ENVIRONMENT``).  The child
drives the public ``Engine`` verbs on those files, gates every repetition
for correctness, and writes one JSON document: the end-to-end metrics
(``--trace 0``) or the per-layer table from the outside replay
(``--trace 1``).

Timed operation, closed loop with one client: a *repetition* is
``read_fastq(reads.fq)`` -> ``engine.run(reads)`` -> ``write_tsv(out)``
against an already-constructed ``Engine``.  One untimed warm-up, then
repetitions until ``--seconds`` have passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

import numpy as np

from calibrate import Bracket
from workloads import read_origins, read_truth

SETUP_REPEATS = 5
SETUP_READS = 32
MIN_REPETITIONS = 3
F1_FLOOR = 0.95


def definition(workload: str) -> "tuple[Any, str, int]":
    """``(PipelineConfig, reference file, workers)`` of a workload; README.md
    says why each exists."""
    from repro.index.seeding import SeederConfig
    from repro.pipeline.config import PipelineConfig

    if workload == "phmm_full":
        return PipelineConfig(), "ref.fa", 1
    if workload == "pool2_warm":
        return PipelineConfig(), "ref.fa", 2
    if workload == "seed_heavy":
        config = PipelineConfig(
            seeder=SeederConfig(qgram_filter=True), band_mode="adaptive"
        )
        return config, "ref_decoy.fa", 1
    if workload == "fast_chardisc":
        config = PipelineConfig(
            seeder=SeederConfig(seed_len=20, qgram_filter=True),
            band_mode="adaptive",
            accumulator="CHARDISC",
        )
        return config, "ref.fa", 1
    raise ValueError(f"unknown workload {workload!r}")


def cpu_seconds() -> float:
    """User + system CPU of this process and of every child it has reaped."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def quartiles(values: "list[float]") -> "dict[str, float]":
    """Median, quartiles and n (a single value is its own quartiles)."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def snp_f1(calls: bytes, truth: "dict[int, str]") -> float:
    """F1 of a written calls TSV against the planted catalog.

    A true positive needs the right position *and* the right alternate
    allele — stricter than the repo's position-level ``compare_to_truth``.
    """
    called = {}
    for line in calls.decode().splitlines()[1:]:
        pos, _, alt = line.split("\t")[:3]
        called[int(pos)] = alt
    tp = sum(1 for pos, alt in truth.items() if called.get(pos) == alt)
    fp = len(called) - tp
    fn = len(truth) - tp
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def same_call_set(a: bytes, b: bytes) -> bool:
    """Same positions, alleles and het flags; depth/stat/p-value columns
    agree to 1e-3.

    The pool merges float32 partial accumulators, so against a serial run
    (or a run the pool chunked differently) the printed statistics can
    differ in their last digit — e.g. 30.3943 vs 30.3944 at seed 2.
    The call set itself must not move.
    """
    rows_a, rows_b = a.decode().splitlines(), b.decode().splitlines()
    if len(rows_a) != len(rows_b):
        return False
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        pos_a, ref_a, alt_a, *num_a, het_a = row_a.split("\t")
        pos_b, ref_b, alt_b, *num_b, het_b = row_b.split("\t")
        if (pos_a, ref_a, alt_a, het_a) != (pos_b, ref_b, alt_b, het_b):
            return False
        if not all(
            math.isclose(float(x), float(y), rel_tol=1e-3, abs_tol=1e-3)
            for x, y in zip(num_a, num_b)
        ):
            return False
    return True


class Workload:
    """Files, config and correctness gates of one workload run."""

    def __init__(self, directory: Path, name: str) -> None:
        self.config, reference, self.workers = definition(name)
        self.ref = directory / reference
        self.reads = directory / "reads.fq"
        self.out = directory / f"calls_{name}.tsv"
        self.truth = read_truth(directory / "truth.tsv")
        self.origins = read_origins(directory / "origins.tsv")
        self.attempted = 0
        self.failures: "list[str]" = []
        self.failed = 0
        self.first_calls: "bytes | None" = None
        self.f1 = 0.0

    def engine(self, workers: "int | None" = None) -> Any:
        from repro.api import Engine

        return Engine.from_fasta(
            str(self.ref), self.config, workers=workers or self.workers
        )

    def repetition(self, engine: Any) -> "tuple[float, Any]":
        """One timed repetition; returns (wall seconds, CallResult)."""
        from repro.genome.fastq import read_fastq

        t0 = time.perf_counter()
        reads = read_fastq(str(self.reads))
        result = engine.run(reads)
        result.write_tsv(str(self.out))
        return time.perf_counter() - t0, result

    def gate(self, result: Any) -> None:
        """Correctness gate on one repetition's outputs (untimed)."""
        self.attempted += 1
        problems = []
        calls = self.out.read_bytes()
        f1 = snp_f1(calls, self.truth)
        if self.first_calls is None:
            self.first_calls, self.f1 = calls, f1
        elif not self.same_calls(calls, self.first_calls):
            problems.append("calls differ from repetition 1")
        if f1 < F1_FLOOR:
            problems.append(f"snp_f1 {f1:.3f} < {F1_FLOOR}")
        evidence = result.accumulator.snapshot()
        if not np.isfinite(evidence).all() or (evidence < 0).any():
            problems.append("accumulator snapshot not finite and non-negative")
        if problems:
            self.failed += 1
            self.failures += [f"repetition {self.attempted}: {p}" for p in problems]

    def same_calls(self, a: bytes, b: bytes) -> bool:
        """Byte identity for serial runs; call-set identity where a pool's
        chunking (which its autotuner may change between runs) is involved."""
        return a == b if self.workers == 1 else same_call_set(a, b)

    def fail_all(self, reason: str) -> None:
        """A fault that voids every repetition of this run."""
        self.failed = max(self.attempted, 1)
        self.attempted = max(self.attempted, 1)
        self.failures.append(reason)

    def timed_repetitions(
        self, engine: Any, seconds: float
    ) -> "tuple[list[float], Bracket]":
        """Warm-up, then gated repetitions until ``seconds`` have passed,
        each bracketed by the calibration kernel; returns the raw walls
        and the bracket holding the machine speed around each."""
        _, result = self.repetition(engine)
        self.gate(result)
        walls: "list[float]" = []
        bracket = Bracket()
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPETITIONS or time.perf_counter() < deadline:
            wall, result = self.repetition(engine)
            bracket.speed()
            self.gate(result)
            walls.append(wall)
        return walls, bracket

    def serial_calls(self) -> bytes:
        """Calls of a serial engine on the same inputs (pool identity gate)."""
        engine = self.engine(workers=1)
        try:
            self.repetition(engine)
        finally:
            engine.close()
        return self.out.read_bytes()


def measure_setup(wl: Workload) -> "list[float]":
    """``SETUP_REPEATS`` x [from_fasta -> run(first reads) -> close], each
    at reference machine speed."""
    from repro.genome.fastq import read_fastq

    head = read_fastq(str(wl.reads))[:SETUP_READS]
    samples = []
    bracket = Bracket()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        engine = wl.engine()
        try:
            engine.run(head)
        finally:
            engine.close()
        wall = time.perf_counter() - t0
        samples.append(wall * bracket.speed())
    return samples


def run_end_to_end(wl: Workload, seconds: float) -> "dict[str, Any]":
    setup = measure_setup(wl)
    cpu0 = cpu_seconds()
    engine = wl.engine()
    try:
        raw, bracket = wl.timed_repetitions(engine, seconds)
    finally:
        # close() reaps the pool workers, so their CPU lands in cpu_seconds().
        engine.close()
    speed = statistics.median(bracket.speeds)
    cpu = (cpu_seconds() - cpu0 - bracket.cpu_seconds) * speed
    walls = [wall * s for wall, s in zip(raw, bracket.speeds)]
    # High-water mark of *this* process, read before the serial identity run
    # below puts full DP matrices into the pool parent.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if wl.workers > 1 and not same_call_set(wl.serial_calls(), wl.first_calls):
        wl.fail_all("pool calls are not the serial engine's call set")
    n_reads = len(wl.origins)
    wall = quartiles(walls)
    return {
        "metrics": {
            "reads_per_s": n_reads / wall["median"],
            "setup_s": statistics.median(setup),
            "peak_rss_mb": peak_rss_mb,
            "snp_f1": wl.f1,
            "cpu_s_per_kread": 1000.0 * cpu / (n_reads * (len(walls) + 1)),
        },
        "detail": {
            "repetition_wall_s": wall,
            "raw_repetition_wall_s": quartiles(raw),
            "machine_speed": speed,
            "setup_s": quartiles(setup),
            "reads": n_reads,
        },
    }


def layer_table(
    rep: Any,
    setup_tracer: Any,
    index_bytes: int,
    engine_wall: float,
    split: "dict[str, float]",
    merge_s: float,
) -> "dict[str, float]":
    """Per-layer metrics of one replay; a metric this workload's path does
    not produce is left out."""
    tracer, wall = rep.tracer, rep.wall
    total = tracer.total
    m: "dict[str, float]" = {}

    def timed(metric: str, seconds: float, share: bool = True) -> None:
        m[f"{metric}_s"] = seconds
        if share:
            m[f"{metric}_share"] = seconds / wall

    timed("genome.fastq_parse", total("genome.fastq_parse"))
    timed("genome.fasta_parse", setup_tracer.total("genome.fasta_parse"), share=False)
    timed("index.build", setup_tracer.total("index.build"), share=False)
    m["index.bytes"] = float(index_bytes)
    seed_s = total("index.seed")
    timed("index.seed", seed_s)
    m["index.seed_reads_per_s"] = rep.n_reads / seed_s
    m["index.candidates_per_read"] = rep.n_pairs / rep.n_reads
    m["index.seed_recall"] = rep.n_recalled / rep.n_reads
    for part in ("lookup", "cluster", "filter"):
        timed(f"index.{part}", seed_s * split[part])
    m["index.filter_pass_rate"] = split["filter_pass_rate"]
    for name in ("pwm", "windows", "normalize"):
        timed(f"phmm.{name}", total(f"phmm.{name}"))
    align_s = total("phmm.align")
    timed("phmm.align", align_s)
    cells = rep.counters.get("phmm.forward_cells", 0.0) + rep.counters.get(
        "phmm.backward_cells", 0.0
    )
    escapes = rep.counters.get("phmm.band_escapes", 0.0)
    m["phmm.pairs"] = float(rep.n_pairs)
    m["phmm.cells"] = cells
    m["phmm.cells_per_s"] = cells / align_s
    m["phmm.band_escapes"] = escapes
    m["phmm.band_escape_rate"] = escapes / rep.n_pairs
    if rep.split_kernels:
        for name in ("emissions", "forward", "backward", "posterior", "zvec"):
            timed(f"phmm.{name}", total(f"phmm.{name}"))
        kernel_rate = cells / (total("phmm.forward") + total("phmm.backward"))
        m["phmm.kernel_cells_per_s"] = kernel_rate
        m["phmm.kernel_gap"] = kernel_rate / m["phmm.cells_per_s"]
    add_s = total("memory.add")
    timed("memory.add", add_s)
    m["memory.add_pairs_per_s"] = rep.n_pairs / add_s
    timed("memory.snapshot", total("memory.snapshot"))
    timed("memory.merge", merge_s, share=False)
    m["memory.acc_bytes_per_base"] = rep.accumulator.nbytes() / rep.positions
    lrt_s = total("calling.lrt")
    timed("calling.lrt", lrt_s)
    m["calling.positions_per_s"] = rep.positions / lrt_s
    timed("calling.write", total("calling.write"))
    timed("pipeline.batch", total("pipeline.batch"))
    roots = sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    timed("pipeline.unattributed", wall - roots)
    m["pipeline.replay_wall_s"] = wall
    m["pipeline.replay_vs_engine"] = wall / engine_wall
    m["pipeline.batches"] = float(rep.n_batches)
    m["pipeline.cells_per_s"] = cells / wall
    return m


def traced_repetition(wl: Workload, engine: Any) -> "tuple[float, float]":
    """One gated repetition under ``trace.enable()``: (wall, events recorded)."""
    import repro.observability.trace as trace
    from repro.observability import scope

    trace.enable()
    try:
        with scope() as registry:
            wall, result = wl.repetition(engine)
            snapshot = registry.snapshot()
    finally:
        trace.disable()
    wl.gate(result)
    return wall, len(snapshot.events) + snapshot.counter("obs.trace_dropped")


def parallel_lifecycle(
    wl: Workload, seconds: float, serial_wall: float, serial_calls: bytes
) -> "dict[str, float]":
    """``Engine(workers=n)`` lifecycle: cold run, warm repetitions, close.

    Worker-side numbers come from the registry the pool merges home
    (``mp.chunk_map_seconds``, ``mp.chunk_retries``), read defensively: a
    renamed metric leaves its ledger metrics out, it does not raise.
    """
    from repro.observability import scope

    workers = wl.workers
    engine = wl.engine()
    try:
        cold, result = wl.repetition(engine)
        wl.gate(result)
        walls, busy, chunks, retries = [], [], [], 0.0
        deadline = time.perf_counter() + seconds
        while len(walls) < MIN_REPETITIONS or time.perf_counter() < deadline:
            with scope() as registry:
                wall, result = wl.repetition(engine)
                snapshot = registry.snapshot()
            wl.gate(result)
            walls.append(wall)
            chunk_hist = snapshot.histogram("mp.chunk_map_seconds")
            if chunk_hist is not None:
                busy.append(float(chunk_hist["sum"]))
                chunks.append(float(chunk_hist["count"]))
            retries += snapshot.counter("mp.chunk_retries")
        pool_calls = wl.out.read_bytes()
    finally:
        t0 = time.perf_counter()
        engine.close()
        close_s = time.perf_counter() - t0
    warm = statistics.median(walls)
    speedup = serial_wall / warm
    metrics = {
        "parallel.speedup": speedup,
        "parallel.efficiency": speedup / workers,
        # Karp-Flatt experimentally determined serial fraction.
        "parallel.serial_fraction": (1 / speedup - 1 / workers) / (1 - 1 / workers),
        "parallel.cold_run_s": cold,
        "parallel.close_s": close_s,
        "parallel.retries": retries,
        # The gate only demands the serial call *set* (see same_call_set);
        # this says whether the written TSV was also byte-identical.
        "parallel.calls_byte_identical": float(pool_calls == serial_calls),
        # Workers are the only children this process has reaped so far.
        "parallel.worker_peak_rss_mb": resource.getrusage(
            resource.RUSAGE_CHILDREN
        ).ru_maxrss
        / 1024.0,
    }
    if busy:
        busy_s = statistics.median(busy)
        metrics["parallel.worker_busy_s"] = busy_s
        metrics["parallel.parent_overhead_s"] = warm - busy_s / workers
        metrics["parallel.chunks"] = statistics.median(chunks)
    return metrics


def run_traced(wl: Workload, seconds: float, spans_path: Path) -> "dict[str, Any]":
    """Per-layer table: engine baseline, bit-equal replays, side passes.

    Rounds of [engine repetition, traced engine repetition (serial
    workloads), replay] run until ``seconds`` have passed, so
    ``replay_vs_engine`` and ``tracing_overhead_pct`` compare neighbours in
    time and machine drift cancels.  The table comes from the replay of
    median wall.  The replay always runs serially, so on ``pool2_warm`` it
    prices the same layers as on ``phmm_full``; the ``parallel.*`` metrics
    add the pool's lifecycle on top and take half the window.
    """
    import replay
    from repro.genome.fastq import read_fastq

    setup_tracer = replay.Tracer()
    parts = replay.build_pipeline(wl.ref, wl.config, setup_tracer)
    reads = read_fastq(str(wl.reads))
    for read in reads[:SETUP_READS]:  # first touch: lazy q-gram table
        parts["seeder"].candidates(read)

    walls, traced, replays, events = [], [], [], 0.0
    window = seconds if wl.workers == 1 else seconds / 2
    engine = wl.engine(workers=1)
    try:
        _, result = wl.repetition(engine)
        wl.gate(result)
        bracket = Bracket()
        deadline = time.perf_counter() + window
        while len(replays) < MIN_REPETITIONS or time.perf_counter() < deadline:
            wall, result = wl.repetition(engine)
            wl.gate(result)
            walls.append(wall)
            engine_evidence = result.accumulator.snapshot()
            engine_calls = wl.out.read_bytes()
            if wl.workers == 1:
                # On a pool, flipping tracing recycles the fleet; the
                # tracing budget is priced on the serial workloads.
                wall, events = traced_repetition(wl, engine)
                traced.append(wall)
            rep = replay.replay_repetition(
                parts, wl.config, wl.reads, wl.out, wl.origins
            )
            wl.attempted += 1
            if not np.array_equal(rep.evidence, engine_evidence):
                wl.fail_all("replay accumulator is not bit-equal to Engine.run's")
            elif rep.calls != engine_calls:
                wl.fail_all("replay calls differ from Engine.run's")
            replays.append(rep)
            bracket.speed()
    finally:
        engine.close()
    engine_wall = statistics.median(walls)
    rep = sorted(replays, key=lambda r: r.wall)[len(replays) // 2]
    split = replay.seeding_by_difference(parts, wl.config, reads)
    merge_s = replay.merge_seconds(rep.accumulator)
    metrics = layer_table(
        rep, setup_tracer, parts["index"].nbytes(), engine_wall, split, merge_s
    )
    # Layer times are raw; these two say what the machine was doing, so a
    # reader can tell a slow layer from a slow quarter of an hour.
    metrics["pipeline.engine_reads_per_s"] = rep.n_reads / engine_wall
    metrics["pipeline.machine_speed"] = statistics.median(bracket.speeds)
    if traced:
        metrics["observability.trace_events"] = float(events)
        metrics["observability.tracing_overhead_pct"] = 100.0 * (
            statistics.median(traced) / engine_wall - 1.0
        )
        metrics["observability.tracing_overhead_spread_pct"] = (
            100.0 * (max(traced) - min(traced)) / engine_wall
        )
    if wl.workers > 1:
        metrics.update(
            parallel_lifecycle(wl, seconds - window, engine_wall, engine_calls)
        )
    with open(spans_path, "w") as fh:
        json.dump({"setup": setup_tracer.as_json(), "replay": rep.tracer.as_json()}, fh)
    return {
        "metrics": metrics,
        "detail": {
            "engine_wall_s": quartiles(walls),
            "replay_wall_s": quartiles([r.wall for r in replays]),
            "spans": len(rep.tracer.spans),
        },
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    # A repetition that raises ends the run with a traceback and a non-zero
    # exit: there is no metric to report for it.
    wl = Workload(args.dir, args.workload)
    if args.trace:
        document = run_traced(wl, args.seconds, args.out.with_suffix(".spans.json"))
    else:
        document = run_end_to_end(wl, args.seconds)
    document.update(
        attempted=wl.attempted, failed=wl.failed, failures=wl.failures
    )
    with open(args.out, "w") as fh:
        json.dump(document, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
