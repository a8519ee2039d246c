"""Seed-guided band geometry and its audit.

A full DP fill costs ``O(N*M)`` per pair even though the k-mer seeding stage
already told us *where* the read aligns: a candidate region is a diagonal
vote, and real alignments wander at most a few indels away from it.  Both
gpuPairHMM (Schmidt et al.) and Endeavor (Graça & Ilic) exploit this: fill
only a band of half-width ``band_w`` around the seed diagonal and the
likelihood is recovered to rounding error at a fraction of the cells.  The
band is a parameter of the one kernel pair in
:mod:`repro.phmm.forward_backward`; this module holds only its geometry and
the audit that decides whether it can be trusted.

Band geometry
-------------
A :class:`BandSpec` fixes, for DP row ``i`` (read prefix length), the window
columns ``j`` with ``|j - (i + center)| <= band_w``, clipped to ``[0, M]``.
``center`` is the window column the read's first base is expected at — in the
pipeline every window is cut at ``candidate.start - pad``, so ``center`` is
``pad`` corrected by any clamping the seeder applied at genome edges.

Escape hatch
------------
Banding is a bet that the alignment stays near the seed diagonal, and the bet
is audited: the backward deposit (:class:`~repro.phmm.forward_backward.LaneTile`)
sums the match posterior on the *interior* band-edge cells (edges the band
created, not the matrix boundary) over the read length.
A well-centred alignment leaves essentially none there (reaching the edge
costs ``~q^band_w``); a long indel or a mis-centred seed lights it up, and
:func:`repro.phmm.alignment.align_batch_banded` re-runs such pairs unbanded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError


@dataclass(frozen=True)
class BandSpec:
    """A diagonal band over an ``(N+1, M+1)`` DP matrix.

    Attributes
    ----------
    n:
        Read length (DP rows ``0..n``).
    m:
        Window length (DP columns ``0..m``).
    center:
        Expected window column of the read's first base: the seed predicts
        read base ``i`` consumes window column ``i + center``.
    width:
        Band half-width ``band_w``; row ``i`` spans columns
        ``[i + center - width, i + center + width]`` clipped to ``[0, m]``.
    """

    n: int
    m: int
    center: int
    width: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.m < 1:
            raise AlignmentError("band requires N >= 1 and M >= 1")
        if self.width < 1:
            raise AlignmentError(f"band width must be >= 1, got {self.width}")

    def bounds(self) -> np.ndarray:
        """``(n+1, 2)`` inclusive in-band columns ``lo, hi`` of every DP row.

        ``lo > hi`` means the band has slid entirely off the matrix for this
        row (the seed diagonal cannot carry the read that far); the row stays
        all-zero and the pair's likelihood collapses to ``-inf``.
        """
        diag = np.arange(self.n + 1) + self.center
        lo, hi = np.maximum(diag - self.width, 0), np.minimum(diag + self.width, self.m)
        return np.stack([lo, hi], 1)

    def row_bounds(self, i: int) -> tuple[int, int]:
        """Row ``i`` of :meth:`bounds`: ``(lo, hi)``."""
        lo, hi = self.bounds()[i].tolist()
        return lo, hi

    def edges(self) -> np.ndarray:
        """``(n+1, 2)`` band-edge columns of every row that are *interior* to
        the matrix, ``-1`` standing for "this side is clipped by the matrix
        boundary, not by the band" — mass at a matrix boundary is legitimate
        alignment geometry, only mass pressed against a band-created edge
        signals that the band is too narrow.  A row the band has left the
        matrix on has no cells, hence no edges."""
        (lo, hi), diag = self.bounds().T, np.arange(self.n + 1) + self.center
        on = lo <= hi
        lo_edge = np.where(on & (lo > 0) & (lo == diag - self.width), lo, -1)
        hi_edge = np.where(on & (hi < self.m) & (hi == diag + self.width), hi, -1)
        return np.stack([lo_edge, hi_edge], 1)

    def interior_edges(self, i: int) -> tuple[int, int]:
        """Row ``i`` of :meth:`edges`: ``(lo_edge, hi_edge)``."""
        lo_edge, hi_edge = self.edges()[i].tolist()
        return lo_edge, hi_edge

    def edge_columns(self, i: int) -> list[int]:
        """DP columns ``j >= 1`` of row ``i``'s interior band-edge cells, low
        edge first."""
        return [c for c in dict.fromkeys(self.interior_edges(i)) if c >= 1]

    def n_cells(self) -> int:
        """DP cells inside the band (one state set per cell), rows ``1..n``."""
        lo, hi = self.bounds()[1:].T
        return int(np.maximum(hi - lo + 1, 0).sum())

    def outside_mask(self) -> np.ndarray:
        """Boolean ``(n+1, m+1)`` mask, True strictly outside the band."""
        rows = np.arange(self.n + 1)[:, None]
        cols = np.arange(self.m + 1)[None, :]
        return np.abs(cols - rows - self.center) > self.width

