"""Integration: metric invariants over real pipeline runs.

Three layers:

* serial run — ``pipeline.reads`` equals the input read count, stage span
  times sum to no more than the measured wall time, the span tree nests as
  documented;
* serial vs multiprocessing — the topology-invariant counters (reads,
  pairs, DP cells, caller tallies) are *identical* regardless of worker
  count, and gauges agree;
* CLI — ``repro call --metrics-json`` emits the schema'd document and the
  same invariants hold between ``--workers 1`` and ``--workers 4``.
"""

import json
import math
import re
import time

import pytest

import repro.observability.trace as trace
from repro.cli import main
from repro.experiments.workload import build_workload
from repro.observability import MetricsRegistry, scope, use
from repro.observability.snapshot import MetricsSnapshot
from repro.pipeline.calibration import ComputeCalibration
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.api import Engine
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.mp_backend import chunk_count

#: Child spans of `align` (window cutting, then the kernel's layers) and of
#: `seed`.
ALIGN_LAYERS = ("pwm", "windows", "emissions", "forward", "backward", "zvec")
SEED_LAYERS = ("lookup", "cluster", "filter", "rank")

#: Counters that must not depend on how the work is partitioned.
#: (pipeline.batches and phmm.batches legitimately differ with chunking.)
INVARIANT_COUNTERS = (
    "pipeline.reads",
    "pipeline.reads_mapped",
    "pipeline.reads_unmapped",
    "pipeline.pairs",
    "seed.reads",
    "seed.candidates",
    "phmm.pairs",
    "phmm.forward_cells",
    "phmm.backward_cells",
    "caller.positions_seen",
    "caller.positions_tested",
    "caller.snps",
)


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    return wl


@pytest.fixture(scope="module")
def reads(workload):
    return workload.reads[:240]


class TestSerialInvariants:
    def test_counts_spans_and_wall_time(self, workload, reads):
        t0 = time.perf_counter()
        with scope() as reg:
            pipe = GnumapSnp(workload.reference, PipelineConfig())
            result = pipe.run(reads)
        wall = time.perf_counter() - t0
        snap = reg.snapshot()

        # Counter invariants against ground truth.
        assert snap.counters["pipeline.reads"] == len(reads)
        assert snap.counters["seed.reads"] == len(reads)
        assert (
            snap.counters["pipeline.reads_mapped"]
            + snap.counters["pipeline.reads_unmapped"]
            == len(reads)
        )
        assert snap.counters["pipeline.reads_mapped"] == result.stats.n_mapped
        assert snap.counters["pipeline.pairs"] == result.stats.n_pairs
        assert snap.counters["phmm.pairs"] == result.stats.n_pairs
        assert snap.counters["caller.snps"] == len(result.snps)
        assert snap.gauges["pipeline.peak_accumulator_bytes"] > 0

        # Span tree shape and time accounting.
        assert snap.span_count("map_reads") == 1
        children = snap.span_node("map_reads")["children"]
        assert {"seed", "align", "weigh", "accumulate"} <= set(children)
        child_sum = sum(node["seconds"] for node in children.values())
        assert child_sum <= snap.span_seconds("map_reads") + 1e-9
        assert snap.total_span_seconds() <= wall + 1e-9

        # The result's own snapshot is the same clock, not a second one.
        for stage in ("seed", "align", "accumulate", "call"):
            assert result.metrics.leaf_totals()[stage] == snap.leaf_totals()[stage]
        assert not result.metrics.events

        # Step A runs a block of `batch_size` reads per `seed` span; the
        # span's *total* is still all of seeding, which is what the
        # calibration reads.
        totals = result.metrics.leaf_totals()
        assert totals["seed"][1] == math.ceil(len(reads) / PipelineConfig().batch_size)
        # Throughput divides by the span that holds the whole mapping, so
        # the weighting and the glue between stages count too.
        mapping = result.metrics.span_seconds("map_reads")
        assert result.reads_per_second == len(reads) / mapping

    def test_calibration_reads_the_seed_span_total(self, workload, reads, monkeypatch):
        seen = []
        real = MetricsSnapshot.leaf_totals

        def spy(snapshot):
            seen.append(real(snapshot))
            return seen[-1]

        monkeypatch.setattr(MetricsSnapshot, "leaf_totals", spy)
        calibration = ComputeCalibration.measure(workload.reference, reads[:60])
        seed_seconds, seed_spans = seen[-1]["seed"]
        assert seed_spans == 1  # 60 reads, one block
        assert calibration.seconds_per_seed == seed_seconds / 60
        # A pair costs its kernel call, its weighting and its deposit.
        pair_seconds = sum(seen[-1][name][0] for name in ("align", "weigh", "accumulate"))
        n_pairs = calibration.pairs_per_read * 60
        assert calibration.seconds_per_pair * n_pairs == pytest.approx(pair_seconds)

    def test_cells_match_batch_geometry(self, workload, reads):
        with scope() as reg:
            pipe = GnumapSnp(workload.reference, PipelineConfig())
            pipe.map_reads(reads)
        snap = reg.snapshot()
        read_len = len(reads[0])
        width = read_len + 2 * PipelineConfig().pad
        expected = snap.counter("pipeline.pairs") * read_len * width
        assert snap.counters["phmm.forward_cells"] == expected
        assert snap.counters["phmm.backward_cells"] == expected


def assert_children_within_parents(tree):
    for node in tree.values():
        child_sum = sum(c["seconds"] for c in node["children"].values())
        assert child_sum <= node["seconds"] + 1e-9
        assert_children_within_parents(node["children"])


class TestLayerSpans:
    """The engine times its own layers as child spans of the stage that
    runs them."""

    def test_seed_and_align_hold_their_layers(self):
        wl = build_workload(scale="tiny", seed=7)
        result = Engine(wl.reference).run(wl.reads)
        m = result.metrics
        # One `align` span per kernel batch: the weighting is its own span.
        assert m.span_count("map_reads/align") == m.counter("pipeline.batches")
        assert m.span_node("map_reads/weigh") is not None
        align = m.span_node("map_reads/align")["children"]
        assert set(ALIGN_LAYERS) <= set(align)
        # A kernel call records its layers once per lane tile it ran, and
        # every batch runs at least one.
        assert m.span_count("map_reads/align/forward") >= m.counter("pipeline.batches")
        seed = m.span_node("map_reads/seed")["children"]
        assert set(SEED_LAYERS) <= set(seed)
        for name in ("forward", "backward"):
            assert align[name]["seconds"] > 0, name
        assert seed["lookup"]["seconds"] > 0
        assert_children_within_parents(m.spans)


class TestSerialVsMultiprocessing:
    def test_counter_totals_identical_across_worker_counts(
        self, workload, reads
    ):
        with scope() as serial_reg:
            serial = Engine(workload.reference).run(reads)
        started = time.perf_counter()
        with scope() as mp_reg, Engine(workload.reference, workers=3) as engine:
            parallel = engine.run(reads)
            wall = time.perf_counter() - started
        s, p = serial_reg.snapshot(), mp_reg.snapshot()
        for name in INVARIANT_COUNTERS:
            assert s.counters[name] == p.counters[name], name
        assert (
            s.gauges["pipeline.peak_accumulator_bytes"]
            == p.gauges["pipeline.peak_accumulator_bytes"]
        )
        assert [c.pos for c in serial.snps] == [c.pos for c in parallel.snps]
        # The merged worker tree hangs under the span that dispatched it
        # (worker-summed CPU seconds), so the roots still add up to wall.
        assert p.span_count("map_parallel") == 1
        assert "map_reads" not in p.spans
        # One map_reads span per dispatched chunk.
        assert p.span_count("map_parallel/map_reads") == chunk_count(len(reads), 3)
        assert p.span_seconds("map_parallel/map_reads/align") > 0
        assert p.total_span_seconds() <= wall + 1e-9


#: The ``subsystem.metric`` naming grammar, and the subsystems a name may
#: start with.
METRIC_NAME = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")
METRIC_PREFIXES = (
    "bench", "caller", "cluster", "index", "io", "memory",
    "mp", "obs", "phmm", "pipeline", "seed",
)


class TestMetricNames:
    def test_emitted_names_follow_the_grammar(self, workload, reads):
        """Every name a run emits — counters, gauges, histograms and trace
        instants, from the parent and from pool workers, including names
        built at run time and the recovery paths' — is ``subsystem.metric``
        with a known subsystem."""
        faulted = PipelineConfig(
            parallel=ParallelConfig(start_method="fork", fault_spec="crash:chunk=0")
        )
        trace.enable()
        try:
            with scope() as serial_reg:
                Engine(workload.reference).run(reads)
            with scope() as pool_reg, Engine(
                workload.reference, faulted, workers=2
            ) as engine:
                engine.run(reads)
        finally:
            trace.disable()
        names = set()
        for snap in (serial_reg.snapshot(), pool_reg.snapshot()):
            names |= set(snap.counters) | set(snap.gauges) | set(snap.histograms)
            names |= {event[2] for event in snap.instants()}
        # The crash and its retry ran, so their names were checked too.
        assert {"mp.worker_deaths", "mp.worker_death", "mp.chunk_retry"} <= names
        bad = sorted(
            name
            for name in names
            if not METRIC_NAME.match(name) or name.split(".")[0] not in METRIC_PREFIXES
        )
        assert bad == []


class TestCliMetricsJson:
    @pytest.fixture(scope="class")
    def sim_files(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("cli_metrics")
        ref, reads, truth = d / "ref.fa", d / "reads.fq", d / "truth.tsv"
        rc = main([
            "simulate", "--scale", "tiny", "--seed", "13",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(truth),
        ])
        assert rc == 0
        return d, ref, reads

    def _call(self, d, ref, reads, workers):
        out = d / f"metrics_w{workers}.json"
        with use(MetricsRegistry()):
            rc = main([
                "call", str(ref), str(reads),
                "-o", str(d / f"snps_w{workers}.tsv"),
                "--workers", str(workers),
                "--metrics-json", str(out),
            ])
        assert rc == 0
        return json.loads(out.read_text())

    def test_workers_1_vs_4_emit_identical_counter_totals(self, sim_files):
        d, ref, reads = sim_files
        doc1 = self._call(d, ref, reads, workers=1)
        doc4 = self._call(d, ref, reads, workers=4)
        for doc in (doc1, doc4):
            assert doc["schema"] == "repro.metrics/v2"
            assert set(doc) == {
                "schema", "counters", "gauges", "histograms", "spans",
                "totals", "manifest",
            }
            assert doc["manifest"]["schema"] == "repro.manifest/v1"
        # The parallel run records the per-chunk latency distribution.
        assert doc4["histograms"]["mp.chunk_map_seconds"]["count"] > 0
        for name in INVARIANT_COUNTERS:
            assert doc1["counters"][name] == doc4["counters"][name], name
        # Gauges agree except the mp-only worker-count and pool gauges.
        assert doc4["gauges"].pop("mp.workers") == 4
        assert doc4["gauges"].pop("mp.workers_effective") == 4
        # The CLI's parallel path runs over the persistent shared-memory
        # pool: the published genome+index bytes are reported.
        assert doc4["gauges"].pop("mp.shm_bytes") > 0
        assert doc1["gauges"] == doc4["gauges"]
        # Times are consistent, not identical: both runs report a positive
        # span total and every tree totals its children.
        for doc in (doc1, doc4):
            assert doc["totals"]["span_seconds"] > 0
            assert_children_within_parents(doc["spans"])
