"""Log-space Viterbi (single best alignment) with backtrace.

Calling marginalises over alignments — the whole point of the paper — so
the default path never runs this.  Two callers do: the
``posterior_mode="viterbi"`` ablation (evidence from the single most
plausible alignment, what MAQ-style callers effectively do) and ``repro
map``, which walks the placements it writes for their CIGARs.  Tests also
use the Viterbi path as a sanity anchor (the best path's probability must
never exceed the total likelihood).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.phmm.model import PHMMParams

_M, _GX, _GY = 0, 1, 2
_NEG = -np.inf


@dataclass
class ViterbiResult:
    """Best path and its log probability.

    ``pairs`` lists ``(i, j)`` 1-based match cells along the path (gap cells
    are omitted — callers want "which read base sits on which window base").
    ``score`` is the path log-probability under the same start/end
    conventions as the semiglobal forward algorithm.
    """

    score: float
    pairs: list[tuple[int, int]]
    start_j: int
    end_j: int


def viterbi_align(pstar: np.ndarray, params: PHMMParams) -> ViterbiResult:
    """Single-pair semiglobal Viterbi alignment over a precomputed emission
    matrix: free genome prefix and suffix, as in the forward pass."""
    pstar = np.asarray(pstar, dtype=np.float64)
    if pstar.ndim != 2:
        raise AlignmentError(f"pstar must be (N, M), got {pstar.shape}")
    N, M = pstar.shape
    with np.errstate(divide="ignore"):
        lp = np.log(pstar)
        lq = np.log(params.q)
        lTMM, lTMG = np.log(params.T_MM), np.log(params.T_MG)
        lTGM, lTGG = np.log(params.T_GM), np.log(params.T_GG)

    v = np.full((3, N + 1, M + 1), _NEG)
    back = np.zeros((3, N + 1, M + 1), dtype=np.int8)
    v[_M, 0, :] = 0.0

    for i in range(1, N + 1):
        # Match: from any state at (i-1, j-1).
        cand = np.stack(
            [
                lTMM + v[_M, i - 1, :-1],
                lTGM + v[_GX, i - 1, :-1],
                lTGM + v[_GY, i - 1, :-1],
            ]
        )
        best = cand.argmax(axis=0)
        v[_M, i, 1:] = lp[i - 1, :] + cand[best, np.arange(M)]
        back[_M, i, 1:] = best
        # G_X: from M or G_X at (i-1, j).
        candx = np.stack([lTMG + v[_M, i - 1, :], lTGG + v[_GX, i - 1, :]])
        bestx = candx.argmax(axis=0)
        v[_GX, i, :] = lq + candx[bestx, np.arange(M + 1)]
        back[_GX, i, :] = np.where(bestx == 0, _M, _GX)
        # G_Y: in-row recurrence, sequential scan (rarely on best paths, and
        # Viterbi is off the hot path, so the Python loop is acceptable).
        for j in range(1, M + 1):
            from_m = lTMG + v[_M, i, j - 1]
            from_g = lTGG + v[_GY, i, j - 1]
            if from_m >= from_g:
                v[_GY, i, j] = lq + from_m
                back[_GY, i, j] = _M
            else:
                v[_GY, i, j] = lq + from_g
                back[_GY, i, j] = _GY

    endM = int(np.argmax(v[_M, N, :]))
    endX = int(np.argmax(v[_GX, N, :]))
    if v[_M, N, endM] >= v[_GX, N, endX]:
        state, j, score = _M, endM, float(v[_M, N, endM])
    else:
        state, j, score = _GX, endX, float(v[_GX, N, endX])
    if not np.isfinite(score):
        raise AlignmentError("no viable alignment path")

    # Backtrace.
    pairs: list[tuple[int, int]] = []
    i = N
    end_j = j
    while i > 0:
        prev = int(back[state, i, j])
        if state == _M:
            pairs.append((i, j))
            i, j = i - 1, j - 1
        elif state == _GX:
            i -= 1
        else:
            j -= 1
        state = prev
    pairs.reverse()
    start_j = pairs[0][1] if pairs else j
    return ViterbiResult(score=score, pairs=pairs, start_j=start_j, end_j=end_j)
