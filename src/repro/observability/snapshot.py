"""Immutable, picklable metric snapshots and their merge algebra.

A :class:`MetricsSnapshot` is the *value* half of the observability layer:
plain nested dicts (so it pickles across ``multiprocessing`` workers and
serialises to JSON without adapters) holding

* ``counters`` — monotonic sums, merged by addition;
* ``gauges`` — high-water marks, merged by maximum;
* ``spans`` — a tree of timed regions, merged by recursive addition of
  ``seconds`` and ``count`` and union of children;
* ``histograms`` — log-spaced value distributions
  (:mod:`repro.observability.histogram`), merged by bucket-count addition;
* ``events`` — flight-recorder trace events
  (:mod:`repro.observability.trace`), merged by concatenation (consumers
  order by timestamp, so fold order never shows).

All merge rules are associative and commutative (events up to the
timestamp reordering the exporters apply) with
:meth:`MetricsSnapshot.empty` as the identity, so partial snapshots from any
number of workers/ranks can be folded in any order and the parallel driver
reports one coherent tree.  The unit tests pin associativity explicitly.

``as_dict``/``from_dict`` cover the JSON-able sections (counters, gauges,
spans, histograms); trace events travel only by pickle and are exported
separately as Chrome trace JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any

from repro.errors import ObservabilityError
from repro.observability.histogram import Histogram, merge_histogram_dicts

#: Separator used by string span paths ("map_reads/align").
PATH_SEP = "/"


def _checked_span_tree(tree: Any) -> "dict[str, dict]":
    """Validating copy of a span tree from outside (file, pipe, socket)."""
    if not isinstance(tree, dict):
        raise ObservabilityError("malformed span tree: children must be a mapping")
    out: dict[str, dict] = {}
    for name, node in tree.items():
        if not (
            isinstance(node, dict)
            and isinstance(node.get("seconds"), Real)
            and isinstance(node.get("count"), Integral)
        ):
            raise ObservabilityError(f"malformed span node {name!r}")
        out[name] = {
            "seconds": node["seconds"],
            "count": node["count"],
            "children": _checked_span_tree(node.get("children")),
        }
    return out


def _section(data: Any, name: str) -> dict:
    """One section of a document from outside; a mapping when present."""
    values = data.get(name, {}) if isinstance(data, dict) else None
    if not isinstance(values, dict):
        raise ObservabilityError(f"malformed metrics section {name!r}")
    return values


def _numbers(data: Any, name: str) -> "dict[str, float]":
    values = _section(data, name)
    if not all(isinstance(v, Real) for v in values.values()):
        raise ObservabilityError(f"metrics section {name!r} holds a non-number")
    return dict(values)


def _merge_span_trees(a: "dict[str, dict]", b: "dict[str, dict]") -> "dict[str, dict]":
    out: dict[str, dict] = {}
    for name in list(a) + [n for n in b if n not in a]:
        na, nb = a.get(name), b.get(name)
        if na is None or nb is None:
            src = na if na is not None else nb
            out[name] = _copy_span_tree({name: src})[name]
        else:
            out[name] = {
                "seconds": na["seconds"] + nb["seconds"],
                "count": na["count"] + nb["count"],
                "children": _merge_span_trees(na["children"], nb["children"]),
            }
    return out


def _copy_histograms(histograms: "dict[str, Any]") -> "dict[str, dict]":
    """Deep-copy histogram dicts, normalising bucket keys to ints (JSON
    stringifies them; the round-trip must converge)."""
    return {name: Histogram.from_dict(d).as_dict() for name, d in histograms.items()}


def _copy_span_tree(tree: "dict[str, dict]") -> "dict[str, dict]":
    return {
        name: {
            "seconds": node["seconds"],
            "count": node["count"],
            "children": _copy_span_tree(node["children"]),
        }
        for name, node in tree.items()
    }


@dataclass(frozen=True)
class MetricsSnapshot:
    """Frozen view of a registry's state at one instant."""

    counters: "dict[str, float]" = field(default_factory=dict)
    gauges: "dict[str, float]" = field(default_factory=dict)
    spans: "dict[str, dict]" = field(default_factory=dict)
    histograms: "dict[str, dict]" = field(default_factory=dict)
    events: "tuple[tuple, ...]" = ()

    @classmethod
    def empty(cls) -> "MetricsSnapshot":
        """The merge identity."""
        return cls()

    # -- merge algebra -------------------------------------------------------
    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Pure merge; ``self`` and ``other`` are left untouched."""
        counters = dict(self.counters)
        for k, v in other.counters.items():
            counters[k] = counters.get(k, 0) + v
        gauges = dict(self.gauges)
        for k, v in other.gauges.items():
            gauges[k] = max(gauges[k], v) if k in gauges else v
        histograms = {k: dict(v) for k, v in self.histograms.items()}
        for k, h in other.histograms.items():
            histograms[k] = (
                merge_histogram_dicts(histograms[k], h)
                if k in histograms
                else dict(h)
            )
        return MetricsSnapshot(
            counters=counters,
            gauges=gauges,
            spans=_merge_span_trees(self.spans, other.spans),
            histograms=histograms,
            events=self.events + other.events,
        )

    # -- queries -------------------------------------------------------------
    def counter(self, name: str, default: float = 0.0) -> float:
        """Counter value, or ``default`` when the counter never fired.

        Recovery counters (``mp.chunk_retries``, ``mp.worker_deaths``, ...)
        only exist on runs that actually recovered from something; this
        keeps assertions and smoke checks free of ``.get`` boilerplate.
        """
        return float(self.counters.get(name, default))

    def histogram(self, name: str) -> "dict | None":
        """The named histogram's plain-dict form, or None if never observed."""
        return self.histograms.get(name)

    def histogram_quantile(self, name: str, q: float) -> float:
        """Approximate q-quantile of the named histogram (NaN if absent)."""
        data = self.histograms.get(name)
        if data is None:
            return float("nan")
        return Histogram.from_dict(data).quantile(q)

    def instants(self, name: "str | None" = None) -> "list[tuple]":
        """Flight-recorder instant events, optionally filtered by name."""
        return [
            ev for ev in self.events if ev[1] == "i" and (name is None or ev[2] == name)
        ]

    def span_node(self, path: str) -> "dict | None":
        """Span node at ``"a/b/c"``, or None if absent."""
        node = None
        children = self.spans
        for part in path.split(PATH_SEP):
            node = children.get(part)
            if node is None:
                return None
            children = node["children"]
        return node

    def span_seconds(self, path: str) -> float:
        """Total seconds under the span at ``path`` (0.0 if absent)."""
        node = self.span_node(path)
        return 0.0 if node is None else float(node["seconds"])

    def span_count(self, path: str) -> int:
        node = self.span_node(path)
        return 0 if node is None else int(node["count"])

    def leaf_totals(self) -> "dict[str, tuple[float, int]]":
        """Per-name ``(seconds, count)`` summed over every path position.

        A name appearing at several depths (e.g. ``align`` under different
        parents) is summed.
        """
        totals: dict[str, tuple[float, int]] = {}

        def walk(tree: dict) -> None:
            for name, node in tree.items():
                s, c = totals.get(name, (0.0, 0))
                totals[name] = (s + node["seconds"], c + node["count"])
                walk(node["children"])

        walk(self.spans)
        return totals

    def total_span_seconds(self) -> float:
        """Sum of the top-level spans (children are nested inside them; the
        children of a pool run's ``map_parallel`` are worker-summed CPU
        seconds, so they may exceed it — the roots stay within wall)."""
        return sum(node["seconds"] for node in self.spans.values())

    # -- plain-dict codec (JSON, explicit pickling) --------------------------
    def as_dict(self) -> dict:
        """JSON-able sections only; trace events travel by pickle, not here."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": _copy_span_tree(self.spans),
            "histograms": _copy_histograms(self.histograms),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        """Inverse of :meth:`as_dict`.  The input may come from a file, a
        worker pipe or a socket, so every section is validated: any defect
        is an :class:`ObservabilityError`, never a ``KeyError`` later."""
        return cls(
            counters=_numbers(data, "counters"),
            gauges=_numbers(data, "gauges"),
            spans=_checked_span_tree(_section(data, "spans")),
            histograms=_copy_histograms(_section(data, "histograms")),
        )


def merge_snapshots(*snaps: MetricsSnapshot) -> MetricsSnapshot:
    """Fold any number of snapshots (associative; order-independent)."""
    out = MetricsSnapshot.empty()
    for snap in snaps:
        out = out.merge(snap)
    return out
