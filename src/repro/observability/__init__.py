"""Zero-dependency tracing/metrics subsystem.

Instrumentation writes five kinds of data to the *current* registry:

* **spans** — nested wall-clock regions (``with span("align"): ...``);
* **counters** — monotonic sums (``current().inc("pipeline.reads", n)``);
* **gauges** — high-water marks (``current().gauge_max("index.bytes", b)``);
* **histograms** — log-spaced distributions
  (``current().observe("mp.chunk_map_seconds", dt)``), surfaced as
  p50/p90/p99;
* **trace events** — timestamped flight-recorder timelines
  (:mod:`repro.observability.trace`), exported as Chrome trace JSON via
  :mod:`repro.observability.chrometrace`.

Snapshots are picklable and merge associatively, so partial results from
``multiprocessing`` workers and simulated cluster ranks fold into one
coherent tree.  See DESIGN.md ("Observability", "Flight-recorder tracing")
for the naming scheme and the ``repro.metrics/v2`` JSON contract — the one
document ``--metrics-json`` writes, the live telemetry endpoint serves and
``repro top`` renders.
"""

from repro.observability.chrometrace import to_chrome_trace, write_chrome_trace
from repro.observability.dashboard import render_top, run_top
from repro.observability.endpoint import TelemetryEndpoint
from repro.observability.export import (
    SCHEMA,
    format_metrics_report,
    read_metrics_json,
    to_json,
    to_json_dict,
    write_metrics_json,
)
from repro.observability.histogram import Histogram
from repro.observability.livestream import TelemetryAggregator, WorkerView
from repro.observability.manifest import MANIFEST_SCHEMA, run_manifest
from repro.observability.registry import (
    MetricsRegistry,
    current,
    global_registry,
    scope,
    use,
)
from repro.observability.snapshot import MetricsSnapshot, merge_snapshots
from repro.observability.spans import Laps, current_path, detached, span

__all__ = [
    "MANIFEST_SCHEMA",
    "SCHEMA",
    "Histogram",
    "Laps",
    "MetricsRegistry",
    "MetricsSnapshot",
    "TelemetryAggregator",
    "TelemetryEndpoint",
    "WorkerView",
    "current",
    "current_path",
    "detached",
    "format_metrics_report",
    "global_registry",
    "merge_snapshots",
    "read_metrics_json",
    "render_top",
    "run_manifest",
    "run_top",
    "scope",
    "span",
    "to_chrome_trace",
    "to_json",
    "to_json_dict",
    "use",
    "write_chrome_trace",
    "write_metrics_json",
]
