"""End-to-end telemetry plane: live endpoint during a pool run, and the
byte-identity contract (SNP calls and accumulator state are identical with
telemetry on or off — the live plane never touches the result path).

Fork start method keeps the repeated worker spawns cheap, matching the
rest of the mp test suite; heartbeats are start-method-agnostic (they ride
each worker's one task pipe).
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.experiments.workload import build_workload
from repro.genome.reference import Reference
from repro.observability import global_registry, render_top
from repro.observability.dashboard import fetch_live
from repro.observability.livestream import STALL_AFTER
from repro.pipeline.config import (
    ParallelConfig,
    PipelineConfig,
    TelemetryConfig,
)


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=31)
    wl.reads = wl.reads[:250]
    return wl


def _config(telemetry: bool, **tele_kwargs) -> PipelineConfig:
    return PipelineConfig(
        parallel=ParallelConfig(start_method="fork"),
        telemetry=TelemetryConfig(enabled=telemetry, **tele_kwargs),
    )


def _engine(workload, config):
    from repro.api import Engine

    return Engine(
        Reference(workload.reference.codes, name=workload.reference.name),
        config,
        workers=2,
    )


class TestTelemetryConfig:
    def test_defaults_off(self):
        cfg = PipelineConfig()
        assert not cfg.telemetry.enabled
        assert cfg.telemetry.interval == 1.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            TelemetryConfig(interval=0.0)
        with pytest.raises(TypeError):  # the watchdog threshold is a constant
            TelemetryConfig(stall_after=5.0)
        with pytest.raises(ConfigError):
            TelemetryConfig(port=70000)
        with pytest.raises(ConfigError):
            TelemetryConfig(port=-1)
        assert TelemetryConfig(port=None).port is None


class TestEngineLifecycle:
    def test_disabled_engine_has_no_telemetry(self, workload):
        with _engine(workload, _config(False)) as engine:
            assert engine.telemetry is None
            assert engine.telemetry_url is None

    def test_enabled_engine_serves_before_first_run(self, workload):
        with _engine(workload, _config(True, interval=0.1)) as engine:
            url = engine.telemetry_url
            assert url is not None and url.endswith("/metrics")
            snap, workers = fetch_live(url)
            assert snap.counters == {} and workers == []

    def test_port_none_keeps_aggregator_without_endpoint(self, workload):
        with _engine(workload, _config(True, port=None)) as engine:
            assert engine.telemetry is not None
            assert engine.telemetry_url is None

    def test_close_tears_down_and_reuse_rebuilds(self, workload):
        engine = _engine(workload, _config(True, interval=0.1))
        first_url = engine.telemetry_url
        engine.close()
        assert engine.telemetry_url is None
        with pytest.raises((OSError, urllib.error.URLError)):
            urllib.request.urlopen(first_url, timeout=1)
        # The engine stays usable: the next parallel run builds a fresh
        # pool, aggregator and endpoint.
        result = engine.run(workload.reads[:50])
        assert engine.telemetry_url is not None
        assert result.stats.n_reads == 50
        engine.close()


def _totals(snap):
    """The numbers the live view must share with the result path."""
    chunks = snap.histogram("mp.chunk_map_seconds") or {"count": 0}
    counts = {n: snap.counter(n) for n in ("pipeline.reads", "phmm.pairs", "seed.candidates")}
    return {**counts, "chunks": chunks["count"]}


class TestLiveScrapeDuringRun:
    def test_live_view_is_complete_when_run_returns(self, workload):
        """Each chunk's reply follows its worker's final heartbeat, so the
        live view holds every finished chunk the moment ``run()`` returns —
        even when the interval is longer than the whole run."""
        with _engine(workload, _config(True, interval=1.0, port=None)) as engine:
            result = engine.run(workload.reads)
            live = engine.telemetry.live_snapshot()
        assert _totals(result.metrics)["pipeline.reads"] == len(workload.reads)
        assert _totals(live) == _totals(result.metrics)

    def test_endpoint_updates_across_a_pool_run(self, workload):
        """The document is live: before the run it shows no pipeline reads;
        after the run it does, with both workers listed — the CI smoke
        contract."""
        with _engine(workload, _config(True, interval=0.05)) as engine:
            url = engine.telemetry_url
            before, _ = fetch_live(url)
            assert "pipeline.reads" not in before.counters
            engine.run(workload.reads)
            snap, workers = fetch_live(url)
            assert snap.counter("pipeline.reads") == len(workload.reads)
            assert len(workers) == 2
            assert [w.pid for w in workers] == sorted(w.pid for w in workers)
            assert snap.counter("obs.telemetry_deltas") > 0
            # The nested span tree travels too, not just flat leaves.
            assert snap.span_seconds("map_reads/align") > 0
            with urllib.request.urlopen(url, timeout=5) as resp:
                doc = json.loads(resp.read())
            assert set(doc) == {
                "schema", "counters", "gauges", "histograms", "spans",
                "totals", "workers",
            }

    def test_fork_inherited_state_stays_out_of_the_live_view(self, workload):
        """Forked workers inherit the parent's process-global registry; each
        clears it before its publisher starts, so only its own work shows."""
        parent = global_registry()
        saved = parent.snapshot()
        parent.inc("pipeline.reads", 1000)
        parent.gauge_max("mp.workers", 99)
        parent.inc("test.parent_only")
        try:
            with _engine(workload, _config(True, interval=0.05)) as engine:
                engine.run(workload.reads)
                snap, _ = fetch_live(engine.telemetry_url)
        finally:
            parent.clear()
            parent.absorb(saved)
        assert snap.counter("pipeline.reads") == len(workload.reads)
        assert "mp.workers" not in snap.gauges
        assert "test.parent_only" not in snap.counters

    def test_recovery_counters_reach_the_live_document(self, workload):
        """The pool's parent-side recovery counters are mirrored into
        the live plane, and ``repro top`` renders them."""
        config = PipelineConfig(
            parallel=ParallelConfig(start_method="fork", fault_spec="crash:chunk=0"),
            telemetry=TelemetryConfig(enabled=True, interval=0.05),
        )
        with _engine(workload, config) as engine:
            result = engine.run(workload.reads)
            assert result.metrics.counter("mp.worker_deaths") == 1
            assert result.metrics.counter("mp.chunk_retries") == 1
            snap, workers = fetch_live(engine.telemetry_url)
            assert snap.counter("mp.worker_deaths") == 1
            assert snap.counter("mp.chunk_retries") == 1
            chunks = snap.histogram("mp.chunk_map_seconds")["count"]
            assert chunks == result.metrics.histogram("mp.chunk_map_seconds")["count"]
            frame = render_top(snap, None, 0.0, workers, source="s", clock_text="t")
            assert (
                f"chunks     ok {chunks}   retries 1   timeouts 0   deaths 1" in frame
            )

    def test_watchdog_flags_a_hung_chunk_before_its_timeout(self, workload):
        """A chunk that sleeps past ``STALL_AFTER`` (but not the chunk
        timeout) is flagged once by the loop's watchdog and still completes
        with the same calls."""
        hang = STALL_AFTER + 1.0
        config = PipelineConfig(
            parallel=ParallelConfig(
                start_method="fork", fault_spec=f"hang:chunk=0,secs={hang:g}"
            ),
            telemetry=TelemetryConfig(enabled=True, interval=0.5, port=None),
        )
        with _engine(workload, config) as engine:
            hung = engine.run(workload.reads)
            counters = engine.telemetry.live_document()["counters"]
        assert counters["mp.worker_stalls"] == 1
        assert counters.get("mp.chunk_timeouts", 0) == 0
        with _engine(workload, _config(False)) as engine:
            clean = engine.run(workload.reads)
        assert [(s.pos, s.alt_name, s.call.pvalue) for s in hung.snps] == [
            (s.pos, s.alt_name, s.call.pvalue) for s in clean.snps
        ]


class TestByteIdentity:
    def test_calls_identical_with_telemetry_on_and_off(self, workload):
        with _engine(workload, _config(False)) as engine_off:
            off = engine_off.run(workload.reads)
        with _engine(workload, _config(True, interval=0.05)) as engine_on:
            on = engine_on.run(workload.reads)
        assert [
            (s.pos, s.ref_name, s.alt_name, s.call.pvalue) for s in on.snps
        ] == [
            (s.pos, s.ref_name, s.alt_name, s.call.pvalue) for s in off.snps
        ]
        assert np.array_equal(
            on.accumulator.snapshot(), off.accumulator.snapshot()
        )
        assert on.stats.n_reads == off.stats.n_reads
