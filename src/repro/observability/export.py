"""Serialisation of metric snapshots: stable JSON and a human report.

The JSON document is a stable, versioned contract (pinned by a golden-file
test) so downstream tooling can rely on it::

    {
      "schema": "repro.metrics/v2",
      "manifest": {"schema": "repro.manifest/v1", "seed": 2012, ...},
      "counters": {"pipeline.reads": 1000, ...},
      "gauges": {"index.bytes": 524288, ...},
      "histograms": {
        "mp.chunk_map_seconds": {
          "count": 64, "sum": 1.93, "min": 0.011, "max": 0.092,
          "p50": 0.031, "p90": 0.055, "p99": 0.092,
          "buckets": {"-20": 3, "-19": 12, ...}
        }
      },
      "spans": {
        "map_reads": {
          "seconds": 1.25, "count": 1,
          "children": {"seed": {...}, "align": {...}, "accumulate": {...}}
        }
      },
      "totals": {"span_seconds": 1.25}
    }

Counter values are written as-is (ints stay ints); span ``seconds`` are
floats; histogram bucket keys are stringified bucket indices (JSON objects
cannot have int keys — the reader converts back); keys are emitted sorted
at every level.  ``manifest`` (see :mod:`repro.observability.manifest`) is
optional and descriptive only.  The live telemetry endpoint serves this
same document plus one more optional key, ``workers`` (per-worker live
state, see :meth:`TelemetryAggregator.live_document`); files never carry it.
:func:`snapshot_from_document` is the one schema check for both.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import ObservabilityError
from repro.observability.histogram import Histogram
from repro.observability.snapshot import MetricsSnapshot

#: Version tag of the JSON document; bump on breaking layout changes.
SCHEMA = "repro.metrics/v2"

#: Quantiles surfaced next to each histogram in the JSON and the report.
_QUANTILES = ((0.5, "p50"), (0.9, "p90"), (0.99, "p99"))


def _sorted_tree(tree: "dict[str, dict]") -> "dict[str, dict]":
    return {
        name: {
            "seconds": tree[name]["seconds"],
            "count": tree[name]["count"],
            "children": _sorted_tree(tree[name]["children"]),
        }
        for name in sorted(tree)
    }


def _histogram_json(data: "dict[str, Any]") -> "dict[str, Any]":
    hist = Histogram.from_dict(data)
    out: dict[str, Any] = {
        "count": hist.count,
        "sum": hist.total,
        "buckets": {str(k): hist.buckets[k] for k in sorted(hist.buckets)},
    }
    if hist.count:
        out["min"] = hist.vmin
        out["max"] = hist.vmax
        for q, label in _QUANTILES:
            out[label] = hist.quantile(q)
    return out


def to_json_dict(
    snapshot: MetricsSnapshot, manifest: "dict[str, Any] | None" = None
) -> dict:
    """The schema'd plain-dict form of a snapshot."""
    out: dict[str, Any] = {
        "schema": SCHEMA,
        "counters": {k: snapshot.counters[k] for k in sorted(snapshot.counters)},
        "gauges": {k: snapshot.gauges[k] for k in sorted(snapshot.gauges)},
        "histograms": {
            k: _histogram_json(snapshot.histograms[k])
            for k in sorted(snapshot.histograms)
        },
        "spans": _sorted_tree(snapshot.spans),
        "totals": {"span_seconds": snapshot.total_span_seconds()},
    }
    if manifest is not None:
        out["manifest"] = manifest
    return out


def to_json(
    snapshot: MetricsSnapshot, manifest: "dict[str, Any] | None" = None
) -> str:
    """Canonical JSON text (sorted keys, 2-space indent, trailing newline)."""
    return json.dumps(to_json_dict(snapshot, manifest), indent=2, sort_keys=True) + "\n"


def write_metrics_json(
    path: str,
    snapshot: MetricsSnapshot,
    manifest: "dict[str, Any] | None" = None,
) -> None:
    """Write the snapshot to ``path`` in the schema'd JSON form."""
    with open(path, "w") as fh:
        fh.write(to_json(snapshot, manifest))


def snapshot_from_document(data: Any, source: str) -> MetricsSnapshot:
    """Schema-check a decoded document (a file's or the live endpoint's).

    The derived per-histogram quantile keys are recomputed from buckets on
    demand, so the round-trip stays lossless for the merge algebra.
    """
    schema = data.get("schema") if isinstance(data, dict) else None
    if schema != SCHEMA:
        raise ObservabilityError(
            f"unknown metrics schema {schema!r} in {source} "
            f"(expected {SCHEMA!r})"
        )
    return MetricsSnapshot.from_dict(data)


def read_metrics_json(path: str) -> MetricsSnapshot:
    """Load a document written by :func:`write_metrics_json`."""
    with open(path) as fh:
        return snapshot_from_document(json.load(fh), path)


#: Counters grouped into dedicated report sections (satellite: fault-smoke
#: CI logs should read as a story, not an alphabetical dump).
_RECOVERY_PREFIX = "mp."


def format_span_tree(tree: "dict[str, dict]", depth: int = 1) -> "list[str]":
    """One indented ``name  seconds  xcount`` line per span node."""
    lines: list[str] = []
    for name, node in tree.items():
        lines.append(
            f"{'  ' * depth}{name:<{max(24 - 2 * depth, 1)}}"
            f"{node['seconds']:10.4f}s  x{node['count']}"
        )
        lines.extend(format_span_tree(node["children"], depth + 1))
    return lines


def format_metrics_report(snapshot: MetricsSnapshot) -> str:
    """Human-readable report: spans, recovery, banding, histograms, rest."""
    lines: list[str] = []

    def table(items: "dict[str, Any]") -> None:
        width = max(len(k) for k in items)
        for k in sorted(items):
            lines.append(f"  {k:<{width}}  {items[k]:,}")

    if snapshot.spans:
        lines.append("spans:")
        lines.extend(format_span_tree(snapshot.spans))

    recovery = {
        k: v for k, v in snapshot.counters.items() if k.startswith(_RECOVERY_PREFIX)
    }
    if recovery:
        lines.append("parallel recovery:")
        table(recovery)

    banding = {
        k: v
        for section in (snapshot.gauges, snapshot.counters)
        for k, v in section.items()
        if k.startswith("phmm.band_")
    }
    if banding:
        lines.append("banding:")
        table(banding)

    if snapshot.histograms:
        lines.append("histograms:")
        width = max(len(k) for k in snapshot.histograms)
        for k in sorted(snapshot.histograms):
            hist = Histogram.from_dict(snapshot.histograms[k])
            if hist.count == 0:
                lines.append(f"  {k:<{width}}  (empty)")
                continue
            quants = "  ".join(
                f"{label}={hist.quantile(q):g}" for q, label in _QUANTILES
            )
            lines.append(
                f"  {k:<{width}}  n={hist.count:,}  "
                f"min={hist.vmin:g}  {quants}  max={hist.vmax:g}"
            )

    other_counters = {
        k: v
        for k, v in snapshot.counters.items()
        if k not in recovery and k not in banding
    }
    if other_counters:
        lines.append("counters:")
        table(other_counters)
    other_gauges = {k: v for k, v in snapshot.gauges.items() if k not in banding}
    if other_gauges:
        lines.append("gauges:")
        table(other_gauges)
    return "\n".join(lines) if lines else "(no metrics recorded)"
