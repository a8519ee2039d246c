"""NumPy oracles for the quantising accumulators' update cycles.

These are the NumPy bodies ``ByteAccumulator.add``, ``CentroidAccumulator.add``
and ``CentroidCodebook.nearest`` had before the cycles moved into the
compiled module (``repro/phmm/_lanes.c``).  Each ``*_add`` below applies one
NumPy call to a single row, so a batch run through it row by row is the
contract the C loops keep: one cycle per row, rows in order.  The state
arrays are updated in place.
"""

from __future__ import annotations

import numpy as np

_SCALE = 255
#: Rows per GEMM in ``nearest_gemm`` and the gap under which the GEMM's
#: argmin was re-decided by the fixed-order sum.
_BLOCK, _TIE = 128, 1e-12


def quantize_rows(real: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Largest-remainder quantisation of ``(U, 5)`` rows to bytes summing to 255."""
    occupied = totals > 0
    raw = np.zeros_like(real)
    raw[occupied] = real[occupied] / totals[occupied, None] * _SCALE
    floors = np.floor(raw)
    remainder = raw - floors
    deficit = (_SCALE - floors.sum(axis=1)).astype(np.int64)
    deficit = np.where(occupied, deficit, 0)
    order = np.argsort(-remainder - np.arange(5) * 1e-12, axis=1, kind="stable")
    ranks = np.empty_like(order)
    rows = np.arange(real.shape[0])[:, None]
    ranks[rows, order] = np.arange(5)[None, :]
    return (floors + (ranks < deficit[:, None])).astype(np.uint8)


def _delta(positions: np.ndarray, z: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    upos, inverse = np.unique(positions, return_inverse=True)
    delta = np.zeros((upos.size, 5))
    np.add.at(delta, inverse, z)
    return upos, delta


def chardisc_add(
    total: np.ndarray, bytes_: np.ndarray, positions: np.ndarray, z: np.ndarray
) -> None:
    """One NumPy CHARDISC ``add`` of clamped rows ``z`` at ``positions``."""
    upos, delta = _delta(positions, z)
    totals = total[upos].astype(np.float64)
    real = bytes_[upos].astype(np.float64) / _SCALE * totals[:, None]
    real += delta
    new_totals = totals + delta.sum(axis=1)
    bytes_[upos] = quantize_rows(real, new_totals)
    total[upos] = new_totals.astype(np.float32)


def nearest_gemm(centroids: np.ndarray, fractions: np.ndarray) -> np.ndarray:
    """Nearest centroid (slots 1..255) by blocked GEMM, with rows whose best
    two distances lie within ``_TIE`` re-decided by the fixed-order sum."""
    f = np.atleast_2d(np.asarray(fractions, dtype=np.float64))
    cents, norms = centroids[1:], (centroids**2).sum(axis=1)[1:]
    out = np.empty(f.shape[0], dtype=np.uint8)
    for a in range(0, f.shape[0], _BLOCK):
        rows = f[a : a + _BLOCK]
        d = norms - 2.0 * (rows @ cents.T)
        best, each = d.argmin(axis=1), np.arange(rows.shape[0])
        lowest = d[each, best]
        d[each, best] = np.inf
        tied = np.flatnonzero(d.min(axis=1) - lowest <= _TIE)
        if tied.size:
            dot = sum(rows[tied, ch, None] * cents[:, ch] for ch in range(5))
            best[tied] = (norms - 2.0 * dot).argmin(axis=1)
        out[a : a + _BLOCK] = best + 1
    return out


def centdisc_add(
    total: np.ndarray,
    idx: np.ndarray,
    positions: np.ndarray,
    z: np.ndarray,
    centroids: np.ndarray,
    table: "np.ndarray | None",
) -> None:
    """One NumPy CENTDISC ``add``: the paper's table update given the merge
    ``table``, the weighted update given ``None``."""
    upos, delta = _delta(positions, z)
    totals = total[upos].astype(np.float64)
    delta_sum = delta.sum(axis=1)
    new_totals = totals + delta_sum
    new_idx = idx[upos].copy()
    if table is not None:
        has_new = delta_sum > 0
        if has_new.any():
            c_new = nearest_gemm(centroids, delta[has_new] / delta_sum[has_new, None])
            new_idx[has_new] = table[new_idx[has_new], c_new]
    else:
        real = centroids[new_idx] * totals[:, None]
        real += delta
        occupied = new_totals > 0
        fractions = np.zeros_like(real)
        fractions[occupied] = real[occupied] / new_totals[occupied, None]
        new_idx[occupied] = nearest_gemm(centroids, fractions[occupied])
    idx[upos] = new_idx
    total[upos] = new_totals.astype(np.float32)
