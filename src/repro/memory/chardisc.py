"""CHARDISC: nucleotide-byte discretisation (1 float + 5 bytes per base).

Per the paper: the float holds the total (possibly partial) sequence count at
the position; the five bytes hold the per-channel fractions.  The paper's
prose says "dividing by 128" but its worked examples (one ``a`` ->
``[255,0,0,0,0]``; one ``a`` + one ``t`` -> ``[128,0,0,127,0]``) use 255 as
full scale — we follow the examples: ``fraction = byte / 255``, with
largest-remainder rounding so that bytes always sum to exactly 255 at any
occupied position (the class invariant).

Update cycle, per :meth:`add` row in row order (``_lanes.c::chardisc_add``):
de-quantise (``real = byte/255 * total``), add the row, re-quantise with the
new total.  Saturation behaves exactly as the paper describes: once the
total exceeds ~255, a single new read's contribution rounds to less than one
byte step and signal stops moving — acceptable below ~255x coverage.
"""

from __future__ import annotations

import numpy as np

from repro.errors import AccumulatorError
from repro.memory.base import Accumulator
from repro.phmm.lanes import LIB

_SCALE = 255


def quantize_rows(real: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Largest-remainder quantisation of ``(U, 5)`` rows to bytes summing to 255.

    Rows with ``totals <= 0`` quantise to all-zero bytes.  The rounding is
    ``add``'s (``_lanes.c::quantize``).
    """
    real = np.ascontiguousarray(real, dtype=np.float64)
    totals = np.ascontiguousarray(totals, dtype=np.float64)
    if real.ndim != 2 or real.shape[1] != 5 or totals.shape != real.shape[:1]:
        raise AccumulatorError(f"real must be (U, 5) beside (U,) totals, got {real.shape}")
    out = np.empty(real.shape, dtype=np.uint8)
    LIB.chardisc_quantize(real.shape[0], real.ctypes.data, totals.ctypes.data, out.ctypes.data)
    return out


class ByteAccumulator(Accumulator):
    """Nucleotide-byte accumulator: float32 totals + uint8 fraction bytes."""

    name = "CHARDISC"

    def __init__(self, length: int) -> None:
        super().__init__(length)
        self._total = np.zeros(length, dtype=np.float32)
        self._bytes = np.zeros((length, 5), dtype=np.uint8)

    def add(self, positions: np.ndarray, z: np.ndarray) -> None:
        positions, z = self._check_add(positions, z)
        LIB.chardisc_add(
            positions.size, positions.ctypes.data, z.ctypes.data,
            self._total.ctypes.data, self._bytes.ctypes.data,
        )

    def snapshot(self) -> np.ndarray:
        return (
            self._bytes.astype(np.float64)
            / _SCALE
            * self._total.astype(np.float64)[:, None]
        )

    def merge(self, other: "Accumulator") -> None:
        """Fold another byte accumulator in: de-quantise both, add, re-quantise."""
        self._check_merge(other)
        o_total = other._total.astype(np.float64)  # type: ignore[attr-defined]
        o_real = other.snapshot()
        s_total = self._total.astype(np.float64)
        real = self.snapshot() + o_real
        new_totals = s_total + o_total
        self._bytes = quantize_rows(real, new_totals)
        self._total = new_totals.astype(np.float32)

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"total": self._total.copy(), "bytes": self._bytes.ravel().copy()}

    @classmethod
    def from_buffers(cls, length: int, buffers: dict[str, np.ndarray]) -> "ByteAccumulator":
        acc = cls(length)
        acc._total = np.asarray(buffers["total"], dtype=np.float32).reshape(length).copy()
        acc._bytes = np.asarray(buffers["bytes"], dtype=np.uint8).reshape(length, 5).copy()
        return acc

    def nbytes(self) -> int:
        return int(self._total.nbytes + self._bytes.nbytes)

    def total_depth(self) -> np.ndarray:
        return self._total.astype(np.float64)

    def byte_state(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of (totals, byte fractions) for inspection in tests."""
        return self._total.copy(), self._bytes.copy()
