"""Perf-regression gate: compare two metrics/bench JSON documents.

``repro metrics diff baseline.json current.json`` flattens both documents
to dotted numeric leaves, computes percentage change per shared key, and
classifies each change against the key's *direction*:

* **lower is better** — wall seconds, DP cells, retries, deaths, drops:
  an increase is a regression;
* **higher is better** — ``reads_per_second``, throughput, speedup:
  a decrease is a regression;
* **neutral** — everything else (counts, sizes without a clear sign):
  reported, never gating.

Direction is inferred from name tokens, higher-is-better tokens first so
``reads_per_second`` does not trip on the ``seconds`` suffix.  The gate is
what turns ``BENCH_*.json`` from a write-only artifact into a trajectory:
CI diffs the fresh bench against the committed baseline and fails on
``--fail-on-regression PCT``.

Works on any JSON of nested dicts with numeric leaves, the
``repro.metrics/v2`` documents included.  ``schema``/``manifest``/``argv``
headers and raw histogram buckets are skipped (derived quantile keys still
diff).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Iterable

__all__ = [
    "DiffEntry",
    "diff_documents",
    "diff_files",
    "format_diff",
    "has_regressions",
]

#: Flattened-key segments that are metadata, not measurements.
_SKIP_KEYS = frozenset({"schema", "manifest", "argv", "buckets"})

#: Name tokens marking a metric where *larger* is an improvement.  Checked
#: before the lower-is-better tokens: ``reads_per_second`` must match here.
_HIGHER_IS_BETTER = (
    "per_second",
    "per_sec",
    "throughput",
    "speedup",
    "rps",
    "reduction",
    "recall",
    "precision",
)

#: Name tokens marking a metric where *larger* is a regression.
_LOWER_IS_BETTER = (
    "seconds",
    "wall",
    "latency",
    "bytes",
    "cells",
    "candidates_per_read",
    "retries",
    "deaths",
    "timeouts",
    "fallbacks",
    "errors",
    "rejects",
    "escapes",
    "dropped",
    "overhead",
    "p50",
    "p90",
    "p99",
)


def classify_direction(key: str) -> str:
    """``"higher"``, ``"lower"`` or ``"neutral"`` for a flattened key."""
    lowered = key.lower()
    for token in _HIGHER_IS_BETTER:
        if token in lowered:
            return "higher"
    for token in _LOWER_IS_BETTER:
        if token in lowered:
            return "lower"
    return "neutral"


@dataclass(frozen=True)
class DiffEntry:
    """One compared leaf: values, change, direction, verdict."""

    key: str
    baseline: float
    current: float
    pct_change: float  # (current - baseline) / |baseline| * 100; inf if base 0
    direction: str  # "higher" | "lower" | "neutral"
    regression_pct: float  # how far the *bad* way it moved; 0 when fine

    @property
    def is_regression(self) -> bool:
        return self.regression_pct > 0.0


def flatten_numeric(doc: Any, prefix: str = "") -> "dict[str, float]":
    """Dotted paths of every numeric leaf, skipping metadata sections."""
    out: dict[str, float] = {}
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in _SKIP_KEYS:
                continue
            path = f"{prefix}.{key}" if prefix else str(key)
            out.update(flatten_numeric(value, path))
    elif isinstance(doc, bool):
        pass  # True/False are not measurements
    elif isinstance(doc, (int, float)):
        out[prefix] = float(doc)
    return out


def _pct(baseline: float, current: float) -> float:
    if baseline == 0.0:
        return 0.0 if current == 0.0 else float("inf")
    return (current - baseline) / abs(baseline) * 100.0


def diff_documents(baseline: Any, current: Any) -> "list[DiffEntry]":
    """Compare shared numeric leaves; sorted worst regression first."""
    base_flat = flatten_numeric(baseline)
    curr_flat = flatten_numeric(current)
    entries: list[DiffEntry] = []
    for key in sorted(base_flat.keys() & curr_flat.keys()):
        bval, cval = base_flat[key], curr_flat[key]
        pct = _pct(bval, cval)
        direction = classify_direction(key)
        if direction == "lower":
            regression = max(0.0, pct)
        elif direction == "higher":
            regression = max(0.0, -pct)
        else:
            regression = 0.0
        entries.append(DiffEntry(key, bval, cval, pct, direction, regression))
    entries.sort(key=lambda e: (-e.regression_pct, e.key))
    return entries


def diff_files(baseline_path: str, current_path: str) -> "list[DiffEntry]":
    """:func:`diff_documents` over two JSON files."""
    with open(baseline_path) as fh:
        baseline = json.load(fh)
    with open(current_path) as fh:
        current = json.load(fh)
    return diff_documents(baseline, current)


def has_regressions(
    entries: "Iterable[DiffEntry]", threshold_pct: float
) -> bool:
    """Whether any directional metric regressed by more than the threshold."""
    return any(e.regression_pct > threshold_pct for e in entries)


def format_diff(
    entries: "list[DiffEntry]", threshold_pct: "float | None" = None
) -> str:
    """Aligned table; regressions beyond the threshold are flagged ``!``."""
    if not entries:
        return "(no shared numeric keys to compare)"
    key_w = max(len(e.key) for e in entries)
    lines = [
        f"{'':2}{'key':<{key_w}}  {'baseline':>14}  {'current':>14}  "
        f"{'change':>10}  dir"
    ]
    for e in entries:
        flag = (
            "!"
            if threshold_pct is not None and e.regression_pct > threshold_pct
            else " "
        )
        change = "  +inf%" if e.pct_change == float("inf") else f"{e.pct_change:+9.2f}%"
        lines.append(
            f"{flag:2}{e.key:<{key_w}}  {e.baseline:>14.6g}  "
            f"{e.current:>14.6g}  {change:>10}  {e.direction}"
        )
    if threshold_pct is not None:
        worst = entries[0].regression_pct if entries else 0.0
        n_bad = sum(1 for e in entries if e.regression_pct > threshold_pct)
        lines.append(
            f"-- {n_bad} regression(s) beyond {threshold_pct:g}% "
            f"(worst {worst:.2f}%)"
            if n_bad
            else f"-- no regressions beyond {threshold_pct:g}%"
        )
    return "\n".join(lines)
