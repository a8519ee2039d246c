"""Batched, scaled forward/backward dynamic programmes, lane-major.

This is the hot path of the whole system (DESIGN §5):

* **The pair is the lane.**  Emissions are stored ``(N, M, B)`` and DP state
  ``(N+1, 3, M+1, B)`` — batch innermost — so a DP row of all ``B`` pairs,
  full or banded, is one contiguous block and every ``j``-shifted operand a
  contiguous sub-block of it.  A row step is a dozen whole-block NumPy calls
  into scratch allocated once per pass.  Results keep their public
  ``(B, ., .)`` shapes as strided views of that storage.
* **In-row recurrences as doubling scans**: ``f_GY(i, j)`` depends on
  ``f_GY(i, j-1)`` within the same row — a first-order linear recurrence
  ``y[j] = x[j] + c y[j-1]``, ``c = q T_GG`` — which :meth:`_Sweep.scan`
  solves in place in ``ceil(log2 n)`` whole-block steps
  ``y[s:] += c^s * y[:-s]``, ``s = 1, 2, 4, ...`` (``b_GY`` runs the
  mirrored scan ``y[:-s] += c^s * y[s:]``).
* **Power-of-two row scales** keep values in float64 range: each row is
  multiplied by ``2^-e``, ``2^e`` the power of two at its per-pair maximum
  (``frexp``), which changes exponents only, and ``e ln 2`` is added to the
  cumulative log scale carried alongside, so likelihoods and posteriors are
  exact.

Both are elementwise per lane, so a pair's bits never depend on which other
pairs share its tile.  The batch-major kernels these replaced (a first-order
IIR filter per row, rows divided by their maximum; frozen in
``tests/phmm/parent_kernels.py``) agree with them to ``1e-12`` (DESIGN §5).

Recursions (Durbin et al. 1998 ch. 4; see the note in
:mod:`repro.phmm.model` about the paper's forward-recursion typo)::

    f_M(i,j)  = p*(i,j) [T_MM f_M(i-1,j-1) + T_GM (f_GX + f_GY)(i-1,j-1)]
    f_GX(i,j) = q [T_MG f_M(i-1,j) + T_GG f_GX(i-1,j)]
    f_GY(i,j) = q [T_MG f_M(i,j-1) + T_GG f_GY(i,j-1)]

    b_M(i,j)  = p*(i+1,j+1) T_MM b_M(i+1,j+1) + q T_MG [b_GX(i+1,j) + b_GY(i,j+1)]
    b_GX(i,j) = p*(i+1,j+1) T_GM b_M(i+1,j+1) + q T_GG b_GX(i+1,j)
    b_GY(i,j) = p*(i+1,j+1) T_GM b_M(i+1,j+1) + q T_GG b_GY(i,j+1)

One boundary convention, semiglobal: the read must be fully aligned but may
land anywhere inside the window, so ``f_M(0, j) = 1`` for every ``j`` (free
genome prefix) and the likelihood sums ``f_M(N, j) + f_GX(N, j)`` over all
``j`` (free genome suffix).  ``mode=`` survives on the public passes only as
a pin (:func:`_check_kernel`).

An optional :class:`~repro.phmm.banded.BandSpec` makes row ``i`` the sub-block
of its in-band columns; cells outside keep their zeros, which the in-band
recurrences read back as "no path enters from outside the band".
``band=None`` is the band whose every row spans ``[0, M]`` — the same code,
bit for bit.  A full pass charges its ``B*N*M`` cells to ``phmm.cells_full``,
a banded one its ``B*band.n_cells()`` to ``phmm.cells_banded``; either also
charges ``phmm.forward_cells``/``phmm.backward_cells``.

The backward recursion exists once, as the row generator
:func:`backward_rows`: :func:`backward_batch` drives it into a full tensor,
:mod:`repro.phmm.alignment` onto a two-row ring (DESIGN §12).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.errors import AlignmentError
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.banded import BandSpec
from repro.phmm.model import PHMMParams

_TINY = 1e-300
_LOG_TINY = float(np.log(_TINY))
_LN2 = float(np.log(2.0))
#: Pairs per batch-major emission product before it is copied into lanes.
_EMIT_PAIRS = 32
#: State axis of the lane-major DP tensors.
ST_M, ST_GX, ST_GY = 0, 1, 2


def _check_kernel(
    mode: str = "semiglobal", kernel: str = "rowsweep", dtype: str = "float64"
) -> None:
    # ledger/replay.py is the sole reader of the mode=/kernel=/dtype=
    # keywords; they go when the ledger stops passing them.
    if (mode, kernel, dtype) != ("semiglobal", "rowsweep", "float64"):
        raise AlignmentError(
            "the only kernel is ('semiglobal', 'rowsweep', 'float64'), "
            f"got {(mode, kernel, dtype)!r}"
        )


def check_pairs(pwms: np.ndarray, windows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate a batch of (PWM, window) pairs; returns them as arrays."""
    pwms = np.asarray(pwms, dtype=np.float64)
    windows = np.asarray(windows)
    if pwms.ndim != 3 or pwms.shape[2] != 4:
        raise AlignmentError(f"pwms must be (B, N, 4), got {pwms.shape}")
    if windows.ndim != 2 or windows.shape[0] != pwms.shape[0]:
        raise AlignmentError(f"windows must be (B, M) matching pwms batch, got {windows.shape}")
    if windows.size and (windows.min() < 0 or windows.max() > 4):
        raise AlignmentError("window codes must be in [0, 4]")
    return pwms, windows


def emissions_batch(
    pwms: np.ndarray,
    windows: np.ndarray,
    params: PHMMParams,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Quality-aware match emissions ``p*`` for a batch.

    ``pwms`` are ``(B, N, 4)`` read PWMs, ``windows`` ``(B, M)`` genome window
    codes (N = 4 allowed), ``params`` supplies the ``p[k, y]`` table.  Returns
    ``p*[b, i, j] = sum_k pwm[b,i,k] p[k, window[b,j]]`` as a ``(B, N, M)``
    view of ``(N, M, B)`` storage, the layout the kernels consume: ``out``
    when given, else a new array.
    """
    pwms, windows = check_pairs(pwms, windows)
    B, N, M = pwms.shape[0], pwms.shape[1], windows.shape[1]
    lanes = np.empty((N, M, B)) if out is None else out
    view = lanes.transpose(2, 0, 1)
    # p[k, window[b, j]] as (b, 4, M): one (N, 4) @ (4, M) product per pair,
    # a few pairs at a time so the batch-major product stays small.
    for a in range(0, B, _EMIT_PAIRS):
        b = slice(a, a + _EMIT_PAIRS)
        emission = params.emission[:, windows[b]].transpose(1, 0, 2)
        np.copyto(view[b], np.matmul(pwms[b], emission))
    return view


def as_lanes(pstar: np.ndarray) -> np.ndarray:
    """``(B, N, M)`` emissions as contiguous ``(N, M, B)`` (no copy when they
    come from :func:`emissions_batch`)."""
    return np.ascontiguousarray(np.asarray(pstar, dtype=np.float64).transpose(1, 2, 0))


@dataclass
class ForwardResult:
    """Scaled forward matrices plus log scales and total log-likelihood.

    ``fM/fGX/fGY`` are ``(B, N+1, M+1)`` *scaled* values (strided views of the
    lane-major state): the true forward probability is
    ``fM[b, i, j] * exp(log_scale[b, i])``.  ``loglik`` is the per-pair total
    alignment log-likelihood.
    """

    fM: np.ndarray
    fGX: np.ndarray
    fGY: np.ndarray
    log_scale: np.ndarray
    loglik: np.ndarray


@dataclass
class BackwardResult:
    """Scaled backward matrices; true value ``bM[b,i,j] * exp(log_scale[b,i])``."""

    bM: np.ndarray
    bGX: np.ndarray
    bGY: np.ndarray
    log_scale: np.ndarray


def check_shape(N: int, M: int, band: BandSpec | None) -> None:
    """Reject an empty DP matrix or a band cut for another."""
    if N == 0 or M == 0:
        raise AlignmentError("empty read or window")
    if band is not None and (band.n, band.m) != (N, M):
        raise AlignmentError(f"band is for ({band.n}, {band.m}), batch is ({N}, {M})")


def _check_inputs(pstar: np.ndarray, mode: str, band: BandSpec | None) -> np.ndarray:
    _check_kernel(mode)
    if np.ndim(pstar) != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {np.shape(pstar)}")
    check_shape(np.shape(pstar)[1], np.shape(pstar)[2], band)
    return as_lanes(pstar)


def charge_pass(kind: str, B: int, N: int, M: int, band: BandSpec | None) -> None:
    """Count one ``kind`` (``"forward"``/``"backward"``) pass over a batch:
    its DP cells go to ``phmm.<kind>_cells`` and to ``phmm.cells_full`` (no
    band) or ``phmm.cells_banded``; a forward pass also counts the batch."""
    reg = metrics()
    if kind == "forward":
        reg.inc("phmm.batches")
        reg.inc("phmm.pairs", B)
    n_cells = B * (N * M if band is None else band.n_cells())
    reg.inc("phmm.cells_full" if band is None else "phmm.cells_banded", n_cells)
    reg.inc("phmm.forward_cells" if kind == "forward" else "phmm.backward_cells", n_cells)


def _views(state: np.ndarray, log_scale: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(B, N+1, M+1)`` views of the three states, ``(B, N+1)`` of the scales."""
    return (*(state[:, s].transpose(2, 0, 1) for s in (ST_M, ST_GX, ST_GY)), log_scale.T)


class _Sweep:
    """Constants, band geometry and scratch shared by the row steps of one
    pass over lane-major emissions ``pl`` of shape ``(N, M, B)``."""

    def __init__(self, pl: np.ndarray, params: PHMMParams, band: BandSpec | None):
        self.pl, self.band = pl, band
        self.N, self.M, B = pl.shape
        self.q, self.TMM, self.TGM = params.q, params.T_MM, params.T_GM
        self.TMG, self.TGG = params.T_MG, params.T_GG
        # Doubling-scan shifts 1, 2, 4, ... <= M and their coefficients
        # (q T_GG)^shift, each the square of the one before.
        self.shifts = [1 << k for k in range(self.M.bit_length())]
        self.powers = [self.q * self.TGG]
        for _ in self.shifts[1:]:
            self.powers.append(self.powers[-1] * self.powers[-1])
        self.sa, self.sb, self.sc = np.empty((3, self.M + 1, B))

    def bounds(self, i: int) -> tuple[int, int]:
        return (0, self.M) if self.band is None else self.band.row_bounds(i)

    @staticmethod
    def rescale(block: np.ndarray, ls_from: np.ndarray, ls_to: np.ndarray) -> None:
        """Scale the row's in-band block by ``2^-e``, ``2^e`` the power of two
        at its per-pair maximum (exact: only exponents change); all three
        states share one scale so the recursion stays exact, and a zero row
        means the alignment has probability zero."""
        _, e = np.frexp(np.maximum(block.max(axis=(0, 1)), _TINY))
        block *= np.ldexp(1.0, -e)
        np.add(ls_from, e * _LN2, out=ls_to)

    def scan(self, y: np.ndarray, tmp: np.ndarray, reverse: bool = False) -> None:
        """Solve ``y[j] = x[j] + q T_GG y[j-1]`` down axis 0 in place (``y``
        holds ``x`` on entry; ``reverse``: ``y[j+1]``), zero past the edge.

        Step ``s`` adds ``(q T_GG)^s`` times the values ``s`` rows back
        (``tmp`` holds the product), so after it every row sums the ``2s``
        terms that reach it: ``ceil(log2 n)`` whole-block steps for ``n``
        rows.  Elementwise per lane, so a lane's bits do not depend on its
        neighbours."""
        n = len(y)
        for s, c in zip(self.shifts, self.powers):
            if s >= n:
                break
            src, dst = (y[s:], y[: n - s]) if reverse else (y[: n - s], y[s:])
            np.add(dst, np.multiply(src, c, out=tmp[: n - s]), out=dst)

    def forward_row(self, i: int, lo: int, hi: int, prev: np.ndarray, row: np.ndarray) -> None:
        """Fill unscaled in-band row ``i >= 1`` from scaled row ``i-1``."""
        jlo = max(lo, 1)  # M/GY cells exist only for j >= 1
        n = hi - jlo + 1
        if n > 0:
            a, b = self.sa[:n], self.sb[:n]
            np.multiply(prev[ST_M, jlo - 1 : hi], self.TMM, out=a)
            np.add(prev[ST_GX, jlo - 1 : hi], prev[ST_GY, jlo - 1 : hi], out=b)
            b *= self.TGM
            a += b
            np.multiply(self.pl[i - 1, jlo - 1 : hi], a, out=row[ST_M, jlo : hi + 1])
        gx, a = row[ST_GX, lo : hi + 1], self.sa[: hi - lo + 1]
        np.multiply(prev[ST_M, lo : hi + 1], self.TMG, out=gx)
        np.multiply(prev[ST_GX, lo : hi + 1], self.TGG, out=a)
        gx += a
        gx *= self.q
        if n > 0:
            # First-order in-row recurrence, zero-initialised at the row's
            # left edge (f_GY(i, jlo-1) is out of band or column 0, hence 0).
            gy = row[ST_GY, jlo : hi + 1]
            np.multiply(row[ST_M, jlo - 1 : hi], self.q * self.TMG, out=gy)
            self.scan(gy, self.sa)

    def backward_last_row(self, row: np.ndarray) -> None:
        """Initialise row ``N`` (already scaled: its log scale is 0).

        bGY stays 0 at i = N: once the read is consumed, paths that keep
        eating genome bases through G_Y are redundant with ending earlier."""
        lo, hi = self.bounds(self.N)
        if lo <= hi:
            row[ST_M, lo : hi + 1] = 1.0
            row[ST_GX, lo : hi + 1] = 1.0

    def backward_row(self, i: int, lo: int, hi: int, nxt: np.ndarray, row: np.ndarray) -> None:
        """Fill unscaled in-band row ``i < N`` from scaled row ``i+1``."""
        n = hi - lo + 1
        # d[j] = p*(i+1, j+1) * b_M(i+1, j+1) for j = lo..hi (zero at j = M).
        d, gd, t = self.sa[:n], self.sb[:n], self.sc[:n]
        nd = min(hi, self.M - 1) - lo + 1
        if nd > 0:
            np.multiply(self.pl[i, lo : lo + nd], nxt[ST_M, lo + 1 : lo + nd + 1], out=d[:nd])
        d[max(nd, 0) :] = 0.0
        np.multiply(d, self.TGM, out=gd)
        gy = row[ST_GY, lo : hi + 1]
        if i > 0:
            # b_GY row i: reversed first-order recurrence driven by T_GM * d,
            # zero-initialised at the row's right edge (b_GY(i, hi+1) is out
            # of band or past column M, hence 0).
            np.copyto(gy, gd)
            self.scan(gy, t, reverse=True)
        else:
            # Row 0 keeps b_GY = 0 and drops the M -> G_Y term: f_GY(0, j) = 0
            # (genome bases before the first read base belong to the start
            # distribution, not to gap states), so paths entering G_Y before
            # any read base must not count.
            gy[...] = 0.0
        # t[j] = b_GX(i+1, j) + b_GY(i, j+1), the latter zero past the edge.
        np.copyto(t, nxt[ST_GX, lo : hi + 1])
        t[:-1] += gy[1:]
        t *= self.q * self.TMG
        bm = row[ST_M, lo : hi + 1]
        np.multiply(d, self.TMM, out=bm)
        bm += t
        np.multiply(nxt[ST_GX, lo : hi + 1], self.q * self.TGG, out=t)
        np.add(gd, t, out=row[ST_GX, lo : hi + 1])


def forward_lanes(
    pl: np.ndarray,
    params: PHMMParams,
    band: BandSpec | None,
    state: np.ndarray,
    log_scale: np.ndarray,
) -> ForwardResult:
    """The forward pass over validated lane-major emissions ``(N, M, B)``
    (no counters: callers charge per batch, not per lane tile).

    ``state`` ``(N+1, 3, M+1, B)`` and ``log_scale`` ``(N+1, B)`` must be
    zeroed, or hold an earlier pass of this shape and band: a pass writes
    the same cells whatever the emissions, so they need no clearing.
    """
    sweep = _Sweep(pl, params, band)
    N = sweep.N
    lo, hi = sweep.bounds(0)
    # Free genome prefix: the read may begin at any in-band column.
    if lo <= hi:
        state[0, ST_M, lo : hi + 1] = 1.0
    for i in range(1, N + 1):
        lo, hi = sweep.bounds(i)
        if lo > hi:
            # Band slid off the matrix: nothing reachable from here on.
            log_scale[i] = log_scale[i - 1] + _LOG_TINY
            continue
        sweep.forward_row(i, lo, hi, state[i - 1], state[i])
        sweep.rescale(state[i, :, lo : hi + 1], log_scale[i - 1], log_scale[i])
    last = state[N]
    # Free genome suffix, summed along a contiguous j axis: NumPy's pairwise
    # summation, which a sum down the lane-major rows would not use.
    total = np.ascontiguousarray(last[ST_M].T).sum(axis=1)
    total += np.ascontiguousarray(last[ST_GX].T).sum(axis=1)
    with np.errstate(divide="ignore"):
        loglik = np.log(np.maximum(total, 0.0)) + log_scale[N]
    fM, fGX, fGY, ls = _views(state, log_scale)
    if sanitize.enabled():
        sanitize.check_pass("forward", (fM, fGX, fGY), ls, band, loglik=loglik)
    return ForwardResult(fM=fM, fGX=fGX, fGY=fGY, log_scale=ls, loglik=loglik)


def forward_batch(
    pstar: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    band: BandSpec | None = None,
) -> ForwardResult:
    """Run the scaled forward algorithm over a batch.

    ``pstar`` is the ``(B, N, M)`` emission array from
    :func:`emissions_batch`.  ``band`` restricts every DP row to its in-band
    columns (``None``: every row spans ``[0, M]``); all matrices keep their
    full ``(B, N+1, M+1)`` shape with exact zeros outside the band, so
    downstream posterior extraction is unchanged.  ``mode`` is pinned to
    ``"semiglobal"`` (:func:`_check_kernel`).
    """
    pl = _check_inputs(pstar, mode, band)
    N, M, B = pl.shape
    charge_pass("forward", B, N, M, band)
    return forward_lanes(
        pl, params, band, np.zeros((N + 1, 3, M + 1, B)), np.zeros((N + 1, B))
    )


def backward_rows(
    pl: np.ndarray,
    params: PHMMParams,
    band: BandSpec | None,
    store: np.ndarray,
    log_scale: np.ndarray,
) -> Iterator[tuple[int, int, int, np.ndarray]]:
    """The backward pass over lane-major emissions, one row at a time.

    Yields ``(i, lo, hi, row)`` for ``i = N..0``: ``row`` is the scaled
    ``(3, M+1, B)`` state of DP row ``i`` — exact zeros outside its in-band
    columns ``lo..hi`` (``lo > hi``: the band is off the matrix) — held in
    ``store[i % len(store)]``, with ``log_scale[i]`` filled in.  ``store``
    must start zeroed; ``len(store) == N+1`` materialises the pass, ``2`` is
    the smallest ring the recursion can run on.
    """
    sweep = _Sweep(pl, params, band)
    N, depth = sweep.N, store.shape[0]
    spans: list[tuple[int, int]] = [(0, -1)] * depth  # columns a slot holds
    for i in range(N, -1, -1):
        lo, hi = sweep.bounds(i)
        row = store[i % depth]
        # A reused ring slot keeps row i+depth: bands only move left as i
        # falls, so what this row will not overwrite lies right of hi.
        plo, phi = spans[i % depth]
        row[:, max(plo, hi + 1) : phi + 1] = 0.0
        spans[i % depth] = (lo, hi) if lo <= hi else (0, -1)
        if i == N:
            sweep.backward_last_row(row)
        elif lo > hi:
            log_scale[i] = log_scale[i + 1] + _LOG_TINY
        else:
            sweep.backward_row(i, lo, hi, store[(i + 1) % depth], row)
            sweep.rescale(row[:, lo : hi + 1], log_scale[i + 1], log_scale[i])
        yield i, lo, hi, row


def backward_batch(
    pstar: np.ndarray,
    params: PHMMParams,
    mode: str = "semiglobal",
    band: BandSpec | None = None,
) -> BackwardResult:
    """Run the scaled backward algorithm over a batch (same conventions)."""
    pl = _check_inputs(pstar, mode, band)
    N, M, B = pl.shape
    charge_pass("backward", B, N, M, band)
    state = np.zeros((N + 1, 3, M + 1, B))
    log_scale = np.zeros((N + 1, B))
    for _ in backward_rows(pl, params, band, state, log_scale):
        pass
    bM, bGX, bGY, ls = _views(state, log_scale)
    if sanitize.enabled():
        sanitize.check_pass("backward", (bM, bGX, bGY), ls, band)
    return BackwardResult(bM=bM, bGX=bGX, bGY=bGY, log_scale=ls)
