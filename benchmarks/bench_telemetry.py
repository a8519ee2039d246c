"""Live-telemetry cost at pipeline scale (DESIGN.md §16).

The live plane (worker heartbeats on the task pipe, fed to the parent's
aggregator by the pool's event loop) is off by default and costs one
uncontended lock per chunk then; when enabled it must stay under 2% of the
warm two-worker wall time and must not change a call.  Every other pipeline-scale number lives in
the ledger (``ledger/run.py``); this budget has no workload there, so it
is asserted here, where parallel hardware exists (``cpu_count >= 2``).
"""

from __future__ import annotations

import os
import time
from dataclasses import replace

from conftest import record

from repro.api import Engine
from repro.pipeline.config import PipelineConfig, TelemetryConfig

#: Publisher interval: fast enough that several heartbeats land inside the
#: measured call, slow enough to be realistic.
TELEMETRY_INTERVAL = 0.25


def _warm_run(wl, config):
    """Second ``run`` of a two-worker engine: (calls, wall, engine telemetry)."""
    with Engine(wl.reference, config, workers=2) as engine:
        engine.run(wl.reads)  # cold: fleet spawn + segment publish
        t0 = time.perf_counter()
        result = engine.run(wl.reads)
        wall = time.perf_counter() - t0
        live = engine.telemetry.live_snapshot() if engine.telemetry else None
    return [(s.pos, s.ref_name, s.alt_name) for s in result.snps], wall, live


def test_telemetry_overhead(scaling_workload):
    wl = scaling_workload
    config = PipelineConfig()
    # No HTTP endpoint (port=None): the lane prices the heartbeats
    # themselves, not socket churn.
    telem_config = replace(
        config,
        telemetry=TelemetryConfig(enabled=True, interval=TELEMETRY_INTERVAL, port=None),
    )
    plain_calls, plain_wall, _ = _warm_run(wl, config)
    telem_calls, telem_wall, live = _warm_run(wl, telem_config)

    assert telem_calls == plain_calls, "telemetry changed the SNP output"
    beats = int(live.counter("obs.telemetry_deltas"))
    assert beats > 0, "telemetry lane ran but no heartbeats arrived"
    assert int(live.counter("obs.telemetry_decode_errors")) == 0
    overhead_pct = 100.0 * (telem_wall - plain_wall) / plain_wall
    cpu_count = os.cpu_count() or 1
    record(
        "Telemetry overhead",
        f"warm workers=2: {plain_wall:.2f}s plain, {telem_wall:.2f}s with the "
        f"plane live ({beats} heartbeats at {TELEMETRY_INTERVAL}s) -> "
        f"{overhead_pct:+.2f}% (<2% budget) | {cpu_count} cpu",
    )
    if cpu_count >= 2:
        assert overhead_pct < 2.0, (
            f"live telemetry cost {overhead_pct:.2f}% of the warm workers=2 "
            "wall — over the 2% budget"
        )
