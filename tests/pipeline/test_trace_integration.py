"""End-to-end flight-recorder integration: workers, faults, export.

The load-bearing claim: a fault-injected parallel run's trace contains
worker-lane events carried home from *spawned* processes (the hard
transport case — no state inheritance), the recovery instants agree with
the recovery counters, and the export is valid Chrome trace JSON with at
least two worker lanes.
"""

import json
import multiprocessing as mp
import os

import pytest

import repro.observability.trace as trace
from repro.experiments.workload import build_workload
from repro.observability import scope, to_chrome_trace
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.api import Engine
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.mp_backend import chunk_count


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    wl.reads = wl.reads[:250]
    return wl


@pytest.fixture(autouse=True)
def traced():
    was_enabled = trace.enabled()
    trace.enable()
    yield
    if not was_enabled:
        trace.disable()


def run_traced(workload, reads=None, **parallel_kwargs):
    config = PipelineConfig(parallel=ParallelConfig(**parallel_kwargs))
    with scope() as reg, Engine(workload.reference, config, workers=2) as engine:
        result = engine.run(workload.reads if reads is None else reads)
        return result, reg.snapshot()


class TestFaultInjectedTrace:
    @pytest.fixture(scope="class")
    def crash_reads(self):
        # Enough reads for four tile-filling chunks at two workers.
        reads = build_workload(scale="tiny", seed=31).reads[:1100]
        assert chunk_count(len(reads), 2) == 4
        return reads

    @pytest.fixture(scope="class")
    def crash_run(self, workload, crash_reads):
        if "spawn" not in mp.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable")
        trace.enable()
        try:
            # Four chunks; chunk 3 crashes on attempt 0 only, so one death +
            # one retry, deterministically.
            # The trace must carry >=2 worker lanes, i.e. the worker that
            # dies on chunk 3 must have sent an earlier chunk home.  A chunk
            # takes ~100 ms while spawned workers come up as much as 200 ms
            # apart, so one worker could drain chunks 0-2 and the other die
            # on its first; stalling chunk 0 for a second (a hang well under
            # the chunk timeout is not a fault) keeps its worker out of the
            # way until the other is up and has chunks home.
            return run_traced(
                workload,
                crash_reads,
                start_method="spawn",
                fault_spec="hang:chunk=0,secs=1;crash:chunk=3",
            )
        finally:
            trace.disable()

    def test_counters_match_instants(self, crash_run):
        _, snap = crash_run
        assert snap.counter("mp.worker_deaths") == 1
        assert snap.counter("mp.chunk_retries") == 1
        assert len(snap.instants("mp.worker_death")) == 1
        assert len(snap.instants("mp.chunk_retry")) == 1
        (death,) = snap.instants("mp.worker_death")
        assert death[7]["chunk"] == 3 and death[7]["attempt"] == 0

    def test_worker_lanes_present_from_spawned_processes(self, crash_run):
        _, snap = crash_run
        worker_pids = {
            ev[3] for ev in snap.events if ev[4] == "worker"
        }
        assert len(worker_pids) >= 2, "expected >=2 worker lanes"
        assert os.getpid() not in worker_pids
        # Worker-side chunk instants made the pickle round trip home.
        begins = snap.instants("mp.chunk_begin")
        assert {ev[7]["chunk"] for ev in begins} >= {0, 1, 2, 3}

    def test_chunk_latency_histogram_recorded(self, crash_run):
        _, snap = crash_run
        hist = snap.histogram("mp.chunk_map_seconds")
        assert hist is not None and hist["count"] >= 4
        assert snap.histogram_quantile("mp.chunk_map_seconds", 0.99) > 0

    def test_chrome_export_loads_with_worker_lanes(self, crash_run):
        _, snap = crash_run
        doc = json.loads(json.dumps(to_chrome_trace(snap)))
        worker_lanes = [
            ev for ev in doc["traceEvents"]
            if ev["ph"] == "M" and ev["name"] == "process_name"
            and ev["args"]["name"].startswith("worker")
        ]
        assert len(worker_lanes) >= 2
        names = {ev["name"] for ev in doc["traceEvents"]}
        assert {"mp.worker_death", "mp.chunk_retry", "map_reads"} <= names

    def test_faulted_run_output_matches_serial(self, crash_run, workload, crash_reads):
        result, _ = crash_run
        serial = GnumapSnp(workload.reference, PipelineConfig()).run(crash_reads)
        assert {(s.pos, s.alt_name) for s in result.snps} == {
            (s.pos, s.alt_name) for s in serial.snps
        }


class TestCleanParallelTrace:
    def test_span_pairs_balance_per_lane(self, workload):
        result, snap = run_traced(workload, start_method="fork")
        assert result.stats.n_reads == len(workload.reads)
        for pid, tid in {(ev[3], ev[5]) for ev in snap.events}:
            lane = [ev for ev in snap.events if (ev[3], ev[5]) == (pid, tid)]
            begins = sum(1 for ev in lane if ev[1] == "B")
            ends = sum(1 for ev in lane if ev[1] == "E")
            assert begins == ends, f"unbalanced span pairs in lane {pid}/{tid}"

    def test_mapping_weight_histogram_flows_back(self, workload):
        _, snap = run_traced(workload, start_method="fork")
        hist = snap.histogram("pipeline.mapping_weight")
        assert hist is not None and hist["count"] > 0


class TestSwitchReachesWorkersOneWay:
    def test_env_var_does_not_turn_worker_tracing_on(self, workload, monkeypatch):
        """Tracing is ``--trace`` / ``trace.enable()``; the parent's switch
        reaches workers with each chunk only.  With
        ``REPRO_TRACE=1`` in the environment spawned workers inherit and the
        parent's tracing off, no worker records an event."""
        if "spawn" not in mp.get_all_start_methods():  # pragma: no cover
            pytest.skip("spawn start method unavailable")
        monkeypatch.setenv("REPRO_TRACE", "1")
        trace.disable()
        result, snap = run_traced(workload, start_method="spawn")
        assert result.stats.n_reads == len(workload.reads)
        assert snap.span_count("map_parallel/map_reads") >= 1  # workers ran
        assert [ev for ev in snap.events if ev[4] == "worker"] == []
