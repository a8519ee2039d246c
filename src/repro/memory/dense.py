"""NORM: the dense float accumulator (5 x float32 per base).

This is the paper's baseline layout — "an array of floats representing the
entire genomic sequence ... with space allocated for each nucleotide".
float32 matches the paper's 4-bytes-per-value accounting; accumulation error
is negligible at resequencing depths.
"""

from __future__ import annotations

import numpy as np

from repro.memory.base import Accumulator
from repro.phmm.lanes import LIB


class DenseAccumulator(Accumulator):
    """``(length, 5)`` float32 evidence matrix with scatter-add updates."""

    name = "NORM"

    def __init__(self, length: int) -> None:
        super().__init__(length)
        self._z = np.zeros((length, 5), dtype=np.float32)

    def add(self, positions: np.ndarray, z: np.ndarray) -> None:
        positions, z = self._check_add(positions, z)
        # Row by row in order, rounding each row to float32 as it lands
        # (np.add.at's bits, repeated positions included).
        LIB.scatter_add(positions.size, positions.ctypes.data, z.ctypes.data, self._z.ctypes.data)

    def snapshot(self) -> np.ndarray:
        return self._z.astype(np.float64)

    def merge(self, other: "Accumulator") -> None:
        self._check_merge(other)
        self._z += other._z  # type: ignore[attr-defined]

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"z": self._z.ravel().copy()}

    @classmethod
    def from_buffers(cls, length: int, buffers: dict[str, np.ndarray]) -> "DenseAccumulator":
        acc = cls(length)
        acc._z = np.asarray(buffers["z"], dtype=np.float32).reshape(length, 5).copy()
        return acc

    def nbytes(self) -> int:
        return int(self._z.nbytes)

    def total_depth(self) -> np.ndarray:
        return self._z.sum(axis=1, dtype=np.float64)
