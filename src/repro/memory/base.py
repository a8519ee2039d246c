"""The accumulator interface shared by all three memory modes.

An accumulator owns the evidence state for a contiguous range of genome
positions (the whole genome in read-spread mode, one segment in
memory-spread mode).  The contract:

* :meth:`add` applies one update cycle per row of z, rows in order (for the
  quantising modes: de-quantise, add, re-quantise; a position named twice
  is cycled twice).  A position's new state depends only on its old state
  and its own rows, never on what shares the call, so ``deposit`` passes a
  batch's live cells in pair order in one call,
* :meth:`snapshot` reconstructs the dense ``(P, 5)`` float64 evidence for
  the calling stage,
* :meth:`merge` folds another accumulator's state in (the MPI reduction),
* :meth:`to_buffers` / :meth:`from_buffers` serialise the state as flat
  NumPy arrays for transport through the communicator,
* :meth:`nbytes` reports the live buffer footprint for the memory tables.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any

import numpy as np

from repro.errors import AccumulatorError
from repro.phmm import sanitize


class Accumulator(ABC):
    """Abstract evidence accumulator over ``length`` genome positions."""

    #: Registry name, e.g. "NORM"; set by subclasses.
    name: str = "?"

    def __init__(self, length: int) -> None:
        if length <= 0:
            raise AccumulatorError(f"accumulator length must be positive, got {length}")
        self.length = length

    def _check_add(self, positions: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Checked, clamped, C-contiguous ``(positions, z)`` for the update loops."""
        positions = np.ascontiguousarray(positions, dtype=np.int64)
        z = np.asarray(z, dtype=np.float64)
        if positions.ndim != 1:
            raise AccumulatorError("positions must be 1-D")
        if z.shape != (positions.size, 5):
            raise AccumulatorError(
                f"z must be ({positions.size}, 5), got {z.shape}"
            )
        if positions.size and (positions.min() < 0 or positions.max() >= self.length):
            raise AccumulatorError("positions out of range")
        if (z < -1e-12).any():
            raise AccumulatorError("z contributions must be non-negative")
        if sanitize.enabled():
            sanitize.check_accumulator(z, where="accumulator.add")
        return positions, np.ascontiguousarray(np.maximum(z, 0.0))

    @abstractmethod
    def add(self, positions: np.ndarray, z: np.ndarray) -> None:
        """Cycle ``z[k]`` into position ``positions[k]``, for k in order."""

    @abstractmethod
    def snapshot(self) -> np.ndarray:
        """Dense ``(length, 5)`` float64 reconstruction of the evidence."""

    @abstractmethod
    def merge(self, other: "Accumulator") -> None:
        """Fold ``other`` (same type, same length) into ``self``."""

    @abstractmethod
    def to_buffers(self) -> dict[str, np.ndarray]:
        """Serialise state as named flat arrays (communicator transport)."""

    @classmethod
    @abstractmethod
    def from_buffers(cls, length: int, buffers: dict[str, np.ndarray]) -> "Accumulator":
        """Rebuild an accumulator from :meth:`to_buffers` output."""

    @abstractmethod
    def nbytes(self) -> int:
        """Bytes held by the accumulator's live buffers."""

    def _check_merge(self, other: "Accumulator") -> None:
        if type(other) is not type(self):
            raise AccumulatorError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}"
            )
        if other.length != self.length:
            raise AccumulatorError(
                f"length mismatch: {other.length} vs {self.length}"
            )

    def total_depth(self) -> np.ndarray:
        """Per-position total evidence ``n`` (from :meth:`snapshot` by default)."""
        return self.snapshot().sum(axis=1)


def make_accumulator(name: str, length: int, **kwargs: Any) -> Accumulator:
    """Factory over the memory modes.

    ``NORM``, ``CHARDISC`` and ``CENTDISC`` are the paper's three modes
    (CENTDISC with its table-lookup update, accuracy collapse included);
    ``CENTDISC_WEIGHTED`` is the exact-weight fix this reproduction adds.
    """
    from repro.memory.centdisc import CentroidAccumulator
    from repro.memory.chardisc import ByteAccumulator
    from repro.memory.dense import DenseAccumulator

    key = name.upper()
    if key == "NORM":
        return DenseAccumulator(length, **kwargs)
    if key == "CHARDISC":
        return ByteAccumulator(length, **kwargs)
    if key == "CENTDISC":
        return CentroidAccumulator(length, update_mode="lut", **kwargs)
    if key == "CENTDISC_WEIGHTED":
        return CentroidAccumulator(length, update_mode="weighted", **kwargs)
    raise AccumulatorError(
        f"unknown accumulator {name!r}; choose from "
        "['NORM', 'CHARDISC', 'CENTDISC', 'CENTDISC_WEIGHTED']"
    )
