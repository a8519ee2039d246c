"""CENTDISC: centroid discretisation (1 float + 1 byte per base).

Following Lloyd & Snell (the paper's [13]): instead of five bytes of
independent fractions, each position stores a single byte indexing a
256-entry *codebook* of base-distribution vectors ("centroids").  The
codebook is built over the probability simplex but sampled by biological
relevance — pure-base states and transition mixtures (A/G, C/T) are
over-represented relative to transversions and gap-heavy states, because
those are the distributions resequencing data actually produces.

Two update modes, selected by ``update_mode``, each one cycle per
:meth:`~CentroidAccumulator.add` row in row order
(``_lanes.c::centdisc_add``):

``"lut"`` (default — the paper's behaviour)
    Every update is a lookup in the precomputed 256x256 *equal-weight* merge
    table: ``state' = table[state, nearest(new_contribution)]``.  This is
    the "sum can be a pre-computed table lookup, reducing the number of
    steps significantly" shortcut the paper describes — and it is also why
    Table III's CENTDISC accuracy is "horrible": the equal-weight merge
    treats each incoming read as *half the accumulated evidence*, so the
    state thrashes toward whatever arrived last; at 10x+ coverage the
    stored distribution bears little relation to the true pile-up
    ("the centroid method performs significant rounding approximations each
    time a new sequence is added ... not recommended for practical use").
``"weighted"``
    The principled fix: de-quantise with the exact running total, add the
    contribution at its true weight, re-quantise to the nearest centroid.
    Error stays bounded by the codebook resolution and accuracy survives —
    see the ablation benchmarks (a beyond-the-paper finding: the centroid
    *layout* is fine, the equal-weight update rule is what destroys it).

For the MPI reduction :meth:`CentroidAccumulator.merge` uses the LUT when
totals are comparable (the paper's fast path) and the weighted merge
otherwise.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

import numpy as np

from repro.errors import AccumulatorError
from repro.memory.base import Accumulator
from repro.phmm.lanes import LIB

_K = 256
#: Simplex grid resolution used to enumerate candidate centroids.
_GRID = 8

# Channel pairs by biological likelihood: transitions (A<->G = 0,2 and
# C<->T = 1,3) outrank transversions, which outrank gap mixtures.
_TRANSITION_PAIRS = {(0, 2), (1, 3)}
_GAP = 4


def _candidate_grid() -> np.ndarray:
    """All compositions of ``_GRID`` units over 5 channels, as fractions."""
    cands = []
    for a in range(_GRID + 1):
        for c in range(_GRID + 1 - a):
            for g in range(_GRID + 1 - a - c):
                for t in range(_GRID + 1 - a - c - g):
                    gap = _GRID - a - c - g - t
                    cands.append((a, c, g, t, gap))
    return np.asarray(cands, dtype=np.float64) / _GRID


def _biological_score(fractions: np.ndarray) -> np.ndarray:
    """Plausibility score per candidate distribution (higher = keep).

    Scoring encodes the paper's sampling argument: concentrated states beat
    diffuse ones; among two-base mixtures, transitions beat transversions;
    gap mass is rare.
    """
    f = np.asarray(fractions)
    top = np.sort(f, axis=1)[:, ::-1]
    concentration = top[:, 0] + 0.6 * top[:, 1]
    score = concentration.copy()
    # transition bonus: mass shared specifically between a transition pair
    for i, j in _TRANSITION_PAIRS:
        score += 0.35 * np.minimum(f[:, i], f[:, j]) * 4.0
    # transversion pairs get a smaller bonus
    for i, j in combinations(range(4), 2):
        if (i, j) not in _TRANSITION_PAIRS:
            score += 0.10 * np.minimum(f[:, i], f[:, j]) * 4.0
    # gap mass penalty
    score -= 0.5 * f[:, _GAP]
    return score


class CentroidCodebook:
    """The 256-entry centroid codebook plus nearest-neighbour machinery."""

    def __init__(self, centroids: np.ndarray | None = None) -> None:
        if centroids is None:
            centroids = self._default_centroids()
        centroids = np.asarray(centroids, dtype=np.float64)
        if centroids.shape != (_K, 5):
            raise AccumulatorError(
                f"codebook must be ({_K}, 5), got {centroids.shape}"
            )
        if (centroids < -1e-9).any():
            raise AccumulatorError("centroids must be non-negative")
        sums = centroids.sum(axis=1)
        if not np.allclose(sums[1:], 1.0, atol=1e-6):
            raise AccumulatorError("centroids (except slot 0) must sum to 1")
        self.centroids = centroids
        # Channel-major copy and squared norms for ``_lanes.c``'s search.
        self._cols = np.ascontiguousarray(centroids.T)
        self._sq_norms = (centroids**2).sum(axis=1)
        self._reduce_table: np.ndarray | None = None

    @staticmethod
    def _default_centroids() -> np.ndarray:
        """Deterministic biologically biased selection of 256 centroids.

        Slot 0 is reserved for the all-zero "empty" state; the remaining 255
        slots take the top-scoring simplex-grid candidates, always including
        the five pure corners and the uniform state.
        """
        cands = _candidate_grid()
        scores = _biological_score(cands)
        # force-include pure corners and uniform
        forced = []
        for ch in range(5):
            corner = np.zeros(5)
            corner[ch] = 1.0
            forced.append(corner)
        forced.append(np.full(5, 0.2))
        forced_arr = np.asarray(forced)
        # drop forced rows from candidates to avoid duplication
        is_forced = (cands[:, None, :] == forced_arr[None, :, :]).all(axis=2).any(axis=1)
        rest = cands[~is_forced]
        rest_scores = scores[~is_forced]
        order = np.argsort(-rest_scores, kind="stable")
        need = _K - 1 - forced_arr.shape[0]
        chosen = rest[order[:need]]
        book = np.vstack([np.zeros((1, 5)), forced_arr, chosen])
        if book.shape[0] != _K:  # pragma: no cover - construction invariant
            raise AccumulatorError(f"codebook built {book.shape[0]} entries")
        return book

    def nearest(self, fractions: np.ndarray) -> np.ndarray:
        """Nearest centroid index per ``(U, 5)`` simplex row (Euclidean).

        The empty slot 0 never matches.  A row's answer is the first minimum
        of ``|c|^2 - 2 f.c`` with the dot product summed in channel order
        (``_lanes.c::nearest``), so it never depends on what shares the call.
        """
        f = np.ascontiguousarray(np.atleast_2d(fractions), dtype=np.float64)
        if f.ndim != 2 or f.shape[1] != 5:
            raise AccumulatorError(f"fractions must be (U, 5), got {f.shape}")
        out = np.empty(f.shape[0], dtype=np.uint8)
        LIB.centroid_nearest(f.shape[0], f.ctypes.data, *self._search(), out.ctypes.data)
        return out

    def _search(self) -> "tuple[int, int]":
        """Pointers to the codebook as ``_lanes.c``'s search reads it."""
        return self._cols.ctypes.data, self._sq_norms.ctypes.data

    def reduce_table(self) -> np.ndarray:
        """Equal-weight merge LUT: ``table[i, j]`` = nearest((c_i + c_j) / 2).

        Computed lazily once (65k nearest-neighbour queries) and cached —
        the precomputed-sum-table trick the paper uses to make the MPI
        reduction a lookup.
        """
        if self._reduce_table is None:
            idx = np.arange(_K)
            ii, jj = np.meshgrid(idx, idx, indexing="ij")
            mix = (self.centroids[ii.ravel()] + self.centroids[jj.ravel()]) / 2.0
            table = self.nearest(mix).reshape(_K, _K)
            # merging with the empty state keeps the occupied operand
            table[0, :] = idx
            table[:, 0] = idx
            table[0, 0] = 0
            self._reduce_table = table
        return self._reduce_table


@lru_cache(maxsize=1)
def default_codebook() -> CentroidCodebook:
    """Process-wide shared default codebook (construction is deterministic)."""
    return CentroidCodebook()


class CentroidAccumulator(Accumulator):
    """Centroid-discretised accumulator: float32 totals + uint8 indices.

    ``update_mode="lut"`` reproduces the paper's table-lookup update (and
    its accuracy collapse); ``"weighted"`` is the exact-weight fix.  See the
    module docstring.
    """

    name = "CENTDISC"

    def __init__(self, length: int, update_mode: str = "lut") -> None:
        super().__init__(length)
        if update_mode not in ("lut", "weighted"):
            raise AccumulatorError(f"unknown update_mode {update_mode!r}")
        self.codebook = default_codebook()
        self.update_mode = update_mode
        self._total = np.zeros(length, dtype=np.float32)
        self._idx = np.zeros(length, dtype=np.uint8)  # 0 = empty state

    def add(self, positions: np.ndarray, z: np.ndarray) -> None:
        positions, z = self._check_add(positions, z)
        table = self.codebook.reduce_table() if self.update_mode == "lut" else None
        LIB.centdisc_add(
            positions.size, positions.ctypes.data, z.ctypes.data,
            self._total.ctypes.data, self._idx.ctypes.data, *self.codebook._search(),
            None if table is None else table.ctypes.data,
        )

    def snapshot(self) -> np.ndarray:
        return (
            self.codebook.centroids[self._idx]
            * self._total.astype(np.float64)[:, None]
        )

    def merge(self, other: "Accumulator") -> None:
        """Fold another centroid accumulator in.

        Positions whose totals are within a factor of two use the
        equal-weight LUT (the paper's fast path); the rest are merged
        exactly in real space and re-quantised.
        """
        self._check_merge(other)
        o_total = other._total.astype(np.float64)  # type: ignore[attr-defined]
        o_idx = other._idx  # type: ignore[attr-defined]
        s_total = self._total.astype(np.float64)
        new_totals = s_total + o_total

        ratio = np.where(
            np.minimum(s_total, o_total) > 0,
            np.maximum(s_total, o_total) / np.maximum(np.minimum(s_total, o_total), 1e-30),
            np.inf,
        )
        lut_ok = (ratio <= 2.0) | (s_total == 0) | (o_total == 0)

        new_idx = self._idx.copy()
        if lut_ok.any():
            table = self.codebook.reduce_table()
            new_idx[lut_ok] = table[self._idx[lut_ok], o_idx[lut_ok]]
        exact = ~lut_ok
        if exact.any():
            real = (
                self.codebook.centroids[self._idx[exact]] * s_total[exact, None]
                + self.codebook.centroids[o_idx[exact]] * o_total[exact, None]
            )
            occ = new_totals[exact] > 0
            fr = np.zeros_like(real)
            fr[occ] = real[occ] / new_totals[exact][occ, None]
            sub = new_idx[exact]
            sub[occ] = self.codebook.nearest(fr[occ])
            new_idx[exact] = sub
        self._idx = new_idx
        self._total = new_totals.astype(np.float32)

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {
            "total": self._total.copy(),
            "idx": self._idx.copy(),
            "mode": np.array([self.update_mode == "weighted"], dtype=np.uint8),
        }

    @classmethod
    def from_buffers(cls, length: int, buffers: dict[str, np.ndarray]) -> "CentroidAccumulator":
        mode = "lut"
        if "mode" in buffers and int(np.asarray(buffers["mode"]).ravel()[0]):
            mode = "weighted"
        acc = cls(length, update_mode=mode)
        acc._total = np.asarray(buffers["total"], dtype=np.float32).reshape(length).copy()
        acc._idx = np.asarray(buffers["idx"], dtype=np.uint8).reshape(length).copy()
        return acc

    def nbytes(self) -> int:
        return int(self._total.nbytes + self._idx.nbytes)

    def total_depth(self) -> np.ndarray:
        return self._total.astype(np.float64)
