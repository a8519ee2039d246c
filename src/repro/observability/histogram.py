"""Log-spaced histogram metric: mergeable latency/size distributions.

Counters answer "how much total"; the scaling arguments in the paper's
Fig. 4 (and everything tail-driven about parallel dispatch) need "how is it
distributed".  :class:`Histogram` records values into **fixed, globally
agreed log-spaced buckets** so that histograms built independently — in any
process, in any order — merge exactly like counters do: bucket counts add,
``count``/``sum`` add, ``min``/``max`` combine.  Merging is associative and
commutative with the empty histogram as identity (bucket counts and
extrema exactly; ``sum`` up to float addition order), so worker snapshots
fold through the same machinery as every other metric.

Bucket scheme: bucket ``i`` covers ``(GROWTH**(i-1), GROWTH**i]`` with
``GROWTH = 2**0.25`` (four buckets per doubling, ~19% relative width — the
resolution of the reported p50/p90/p99 quantiles).  Values ``<= 0`` land in
the dedicated :data:`ZERO_BUCKET`; a value that is not a finite number is
recorded as 0.0, so every field of the JSON form stays finite.  Scalars and
arrays share one bucketing path, :meth:`Histogram.record`.  Because the grid
is fixed, no bucket boundaries ever need to be negotiated or transported: a
histogram is just a sparse ``{bucket: count}`` dict plus four scalars.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Mapping

import numpy as np

from repro.errors import ObservabilityError

__all__ = [
    "GROWTH",
    "ZERO_BUCKET",
    "Histogram",
    "bucket_upper",
    "merge_histogram_dicts",
]

#: Geometric bucket growth factor (4 buckets per doubling).
GROWTH: float = 2.0**0.25

_LOG_GROWTH: float = math.log(GROWTH)

#: Sentinel bucket index for values <= 0 (e.g. zero band-edge mass).
ZERO_BUCKET: int = -(2**31)

#: Relative snap tolerance: a value within this of an exact bucket boundary
#: (in log space) is treated as *on* the boundary, so float noise in
#: ``GROWTH**k`` round-trips into bucket ``k`` on every platform.
_SNAP: float = 1e-9


def _bucket_indices(values: np.ndarray) -> np.ndarray:
    """The bucket of each finite value: ``GROWTH**(i-1) < value <= GROWTH**i``,
    or :data:`ZERO_BUCKET` for values ``<= 0``."""
    positive = values > 0.0
    raw = np.log(np.where(positive, values, 1.0)) / _LOG_GROWTH
    snapped = np.rint(raw)
    on_boundary = np.abs(raw - snapped) <= _SNAP * np.maximum(1.0, np.abs(raw))
    idx = np.where(on_boundary, snapped, np.ceil(raw)).astype(np.int64)
    return np.where(positive, idx, ZERO_BUCKET)


def bucket_upper(index: int) -> float:
    """Inclusive upper bound of bucket ``index`` (0.0 for the zero bucket)."""
    if index == ZERO_BUCKET:
        return 0.0
    try:
        return GROWTH**index
    except OverflowError:  # pragma: no cover - astronomically large index
        return math.inf


class Histogram:
    """A mergeable, fixed-grid log-spaced histogram.

    Mutable (the registry updates it in place under its lock); snapshots
    carry the plain-dict form from :meth:`as_dict`.
    """

    __slots__ = ("count", "total", "vmin", "vmax", "buckets")

    def __init__(self) -> None:
        self.count: int = 0
        self.total: float = 0.0
        self.vmin: float = math.inf
        self.vmax: float = -math.inf
        self.buckets: dict[int, int] = {}

    # -- writes --------------------------------------------------------------
    def record(
        self, values: "float | np.ndarray | Iterable[float]", count: int = 1
    ) -> None:
        """Record every element of ``values`` (a scalar is one element)
        ``count`` times; a non-finite value is recorded as 0.0."""
        if count < 1:
            raise ObservabilityError(f"histogram count must be >= 1, got {count}")
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        arr = np.where(np.isfinite(arr), arr, 0.0)
        idxs, counts = np.unique(_bucket_indices(arr), return_counts=True)
        for idx, cnt in zip(idxs.tolist(), counts.tolist()):
            self.buckets[idx] = self.buckets.get(idx, 0) + cnt * count
        self.count += int(arr.size) * count
        self.total += float(arr.sum()) * count
        self.vmin = min(self.vmin, float(arr.min()))
        self.vmax = max(self.vmax, float(arr.max()))

    def merge(self, other: "Histogram") -> None:
        """Fold ``other`` into this histogram in place."""
        for idx, cnt in other.buckets.items():
            self.buckets[idx] = self.buckets.get(idx, 0) + cnt
        self.count += other.count
        self.total += other.total
        self.vmin = min(self.vmin, other.vmin)
        self.vmax = max(self.vmax, other.vmax)

    # -- reads ---------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """Approximate q-quantile: the covering bucket's upper bound, clamped
        to the observed ``[min, max]`` (exact at the ~19% bucket resolution).
        Returns NaN on an empty histogram."""
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return math.nan
        target = max(1, math.ceil(q * self.count))
        cumulative = 0
        for idx in sorted(self.buckets):
            cumulative += self.buckets[idx]
            if cumulative >= target:
                return min(max(bucket_upper(idx), self.vmin), self.vmax)
        return self.vmax  # pragma: no cover - cumulative always reaches count

    # -- plain-dict codec (snapshots, JSON) ----------------------------------
    def as_dict(self) -> "dict[str, Any]":
        """Picklable/JSON-able form; bucket keys stay ints here (the JSON
        exporter stringifies them)."""
        out: dict[str, Any] = {
            "count": self.count,
            "sum": self.total,
            "buckets": dict(self.buckets),
        }
        if self.count:
            out["min"] = self.vmin
            out["max"] = self.vmax
        return out

    @classmethod
    def from_dict(cls, data: "Mapping[str, Any]") -> "Histogram":
        """Inverse of :meth:`as_dict`; accepts string bucket keys (JSON)."""
        hist = cls()
        try:
            hist.count = int(data.get("count", 0))
            hist.total = float(data.get("sum", 0.0))
            hist.buckets = {
                int(k): int(v) for k, v in dict(data.get("buckets", {})).items()
            }
            if hist.count:
                hist.vmin = float(data.get("min", math.inf))
                hist.vmax = float(data.get("max", -math.inf))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ObservabilityError(f"malformed histogram dict: {exc}") from exc
        if any(v < 0 for v in hist.buckets.values()) or (
            sum(hist.buckets.values()) != hist.count
        ):
            raise ObservabilityError(
                "malformed histogram dict: bucket counts must be >= 0 and "
                f"sum to count={hist.count}"
            )
        return hist

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return (
            self.count == other.count
            and self.buckets == other.buckets
            and self.total == other.total
            and (self.count == 0 or (self.vmin, self.vmax) == (other.vmin, other.vmax))
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Histogram(count={self.count}, sum={self.total:g}, "
            f"buckets={len(self.buckets)})"
        )


def merge_histogram_dicts(
    a: "Mapping[str, Any]", b: "Mapping[str, Any]"
) -> "dict[str, Any]":
    """Pure merge of two :meth:`Histogram.as_dict` forms (snapshot algebra)."""
    ha = Histogram.from_dict(a)
    ha.merge(Histogram.from_dict(b))
    return ha.as_dict()
