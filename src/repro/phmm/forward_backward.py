"""Lane-major Pair-HMM kernels: emissions, and the forward/backward pair.

This is the hot path of the whole system (DESIGN §5, §12):

* **The pair is the lane.**  Emissions are stored ``(N, M, B)`` and DP state
  ``(N+1, 3, M+1, B)`` — batch innermost — so a DP row of all ``B`` pairs,
  full or banded, is one contiguous block.  The row recurrences are C loops
  over that block (``_lanes.c``, loaded by :mod:`repro.phmm.lanes`);
  :class:`LaneTile` holds a tile's buffers and makes the two calls.
* **In-row recurrences in order**: ``f_GY(i, j)`` depends on ``f_GY(i, j-1)``
  within the same row, a first-order scan each lane runs left to right
  (``b_GY`` right to left).
* **Power-of-two row scales, exact exponents**: each row is multiplied by
  ``2^-e``, ``2^e`` the power of two at its per-pair maximum, and the int
  exponent is carried per (row, pair).  So ``loglik = log(total) + E_N ln 2``
  is one rounding, and the posterior factor of row ``i`` is the exact
  ``2^(Ef_i + Eb_i - E_N) / total``.
* **The backward pass deposits as it goes**: row ``i``'s posterior mass goes
  into the tile's ``z`` the moment the row exists, so the pipeline runs the
  backward recursion on a two-row ring (``depth=2``); ``depth=N+1``
  materialises it for the sanitizer and the tests.

Every step is elementwise per lane, so a pair's bits never depend on which
other pairs share its tile.  The batch-major kernels these replaced (frozen
in ``tests/phmm/parent_kernels.py``) agree with them to ``1e-12``.

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
``j`` (free genome suffix).  ``mode=`` survives on the public calls only as
a pin (:func:`_check_kernel`).

An optional :class:`~repro.phmm.banded.BandSpec` gives each row its in-band
columns ``lo..hi``; cells outside keep their zeros, which the in-band
recurrences read back as "no path enters from outside the band".  No band is
the band whose every row spans ``[0, M]`` — the same code, bit for bit.  A
full pass charges its ``B*N*M`` cells to ``phmm.cells_full``, a banded one
its ``B*band.n_cells()`` to ``phmm.cells_banded``; either also charges
``phmm.forward_cells``/``phmm.backward_cells``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AlignmentError
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.banded import BandSpec
from repro.phmm.lanes import LIB
from repro.phmm.model import PHMMParams

LN2 = float(np.log(2.0))
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


def check_shape(N: int, M: int, band: BandSpec | None) -> None:
    """Reject an empty DP matrix or a band cut for another."""
    if N == 0 or M == 0:
        raise AlignmentError("empty read or window")
    if band is not None and (band.n, band.m) != (N, M):
        raise AlignmentError(f"band is for ({band.n}, {band.m}), batch is ({N}, {M})")


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




def _ptr(a: np.ndarray | None) -> int | None:
    return None if a is None else int(a.ctypes.data)


class LaneTile:
    """The buffers of one lane tile of ``(N, M)`` pairs and its two kernel
    calls.

    Cut once per ``(N, M, lanes)`` and reused by equal tiles: each pass
    rewrites the same cells whatever the emissions, and the cells outside
    the band stay zero.  ``emissions`` is room for
    :func:`emissions_batch`'s ``out``.  ``depth`` is the backward store's: ``2`` is the ring
    the pipeline runs on, ``N+1`` keeps every row (the sanitizer's check and
    the tests).  ``occupancy`` and ``edge`` switch on the outputs no default
    caller reads: the match posterior per window column, and the band-edge
    audit (:meth:`~repro.phmm.banded.BandSpec.edge_columns`).
    """

    def __init__(
        self,
        N: int,
        M: int,
        lanes: int,
        band: BandSpec | None,
        depth: int = 2,
        occupancy: bool = False,
        edge: bool = False,
    ) -> None:
        rows = range(N + 1)
        self.shape = (N, M, lanes)
        self.bounds = np.array(
            [(0, M) if band is None else band.row_bounds(i) for i in rows], dtype=np.intc
        )
        self.band = band
        self.emissions = np.empty((N, M, lanes))
        self.state = np.zeros((N + 1, 3, M + 1, lanes))
        self.f_exp = np.zeros((N + 1, lanes), dtype=np.intc)
        self.store = np.zeros((depth, 3, M + 1, lanes))
        self.b_exp = np.zeros((N + 1, lanes), dtype=np.intc)
        self.pwms = np.empty((N, 4, lanes))
        self.total = np.empty(lanes)
        self.z = np.empty((5, M, lanes))
        self.occ: np.ndarray | None = np.empty((M, lanes)) if occupancy else None
        self.edges: np.ndarray | None = None
        self.cells: np.ndarray | None = None
        self.edge: np.ndarray | None = None
        if edge and band is not None:
            edges = np.array([band.interior_edges(i) for i in rows], dtype=np.intc)
            self.edges = np.where(edges >= 1, edges, -1).astype(np.intc)
            self.cells = np.empty((N + 1, 2, lanes))
            self.edge = np.empty(lanes)

    def forward(self, pl: np.ndarray, params: PHMMParams) -> np.ndarray:
        """Fill the forward state from lane-major emissions ``(N, M, lanes)``;
        returns the pairs' ``loglik``."""
        N, M, B = self.shape
        LIB.forward(
            N, M, B, self._emissions(pl), _ptr(self.bounds), *_params(params),
            _ptr(self.state), _ptr(self.f_exp),
        )
        last = self.state[N]
        # Free genome suffix, summed along a contiguous j axis: NumPy's
        # pairwise summation, which a sum down the lane-major rows would
        # not use.
        total = np.ascontiguousarray(last[ST_M].T).sum(axis=1)
        total += np.ascontiguousarray(last[ST_GX].T).sum(axis=1)
        np.copyto(self.total, total)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(total, 0.0)) + self.f_exp[N] * LN2

    def backward(self, pl: np.ndarray, pwms: np.ndarray, params: PHMMParams) -> None:
        """Run the backward pass after :meth:`forward` on the same emissions
        and deposit it: ``z`` (and ``occ``, ``edge`` when cut) for the
        ``(lanes, N, 4)`` PWMs.  Pairs with ``loglik = -inf`` deposit zeros."""
        N, M, B = self.shape
        np.copyto(self.pwms, pwms.transpose(1, 2, 0))
        LIB.backward_deposit(
            N, M, B, self._emissions(pl), _ptr(self.pwms), _ptr(self.bounds), *_params(params),
            self.store.shape[0], _ptr(self.store), _ptr(self.b_exp),
            _ptr(self.state), _ptr(self.f_exp), _ptr(self.total),
            _ptr(self.z), _ptr(self.occ), _ptr(self.edges), _ptr(self.cells),
            _ptr(self.edge),
        )

    def _emissions(self, pl: np.ndarray) -> int | None:
        """``pl``'s address, once it is known to be what the C loops read."""
        if pl.shape != self.shape or pl.dtype != np.float64 or not pl.flags.c_contiguous:
            raise AlignmentError(
                f"lane emissions must be C-contiguous float64 {self.shape}, "
                f"got {pl.dtype} {pl.shape}"
            )
        return _ptr(pl)

    def views(self, kind: str) -> tuple[np.ndarray, ...]:
        """``(B, N+1, M+1)`` views of a pass's three states and its
        ``(B, N+1)`` log scales (``"backward"``: only with depth ``N+1``)."""
        state, exps = (self.state, self.f_exp) if kind == "forward" else (self.store, self.b_exp)
        return (*(state[:, s].transpose(2, 0, 1) for s in (ST_M, ST_GX, ST_GY)), exps.T * LN2)

    def check(self, kind: str, loglik: np.ndarray | None = None) -> None:
        """Hand a pass to the sanitizer (:func:`repro.phmm.sanitize.check_pass`)."""
        *states, log_scale = self.views(kind)
        sanitize.check_pass(kind, states, log_scale, self.band, loglik=loglik)


def _params(params: PHMMParams) -> tuple[float, ...]:
    return params.q, params.T_MM, params.T_GM, params.T_MG, params.T_GG


# Whole-batch drivers.  The pipeline never keeps a backward pass; these run
# the same two LaneTile calls over a whole batch with the backward store at
# depth N+1 and hand back every matrix as (B, N+1, M+1) views, for the tests
# and for the ledger's split-kernel replay.


@dataclass
class ForwardResult:
    """Scaled forward matrices: the true value is
    ``fM[b, i, j] * exp(log_scale[b, i])``; ``loglik`` per pair.  ``tile``
    and its lane emissions ``pl`` are what a posterior pass re-enters."""

    fM: np.ndarray
    fGX: np.ndarray
    fGY: np.ndarray
    log_scale: np.ndarray
    loglik: np.ndarray
    tile: LaneTile
    pl: np.ndarray


@dataclass
class BackwardResult:
    """Scaled backward matrices; true value ``bM[b,i,j] * exp(log_scale[b,i])``."""

    bM: np.ndarray
    bGX: np.ndarray
    bGY: np.ndarray
    log_scale: np.ndarray


def _batch_lanes(pstar: np.ndarray, mode: str, band: BandSpec | None) -> np.ndarray:
    _check_kernel(mode)
    if np.ndim(pstar) != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {np.shape(pstar)}")
    check_shape(np.shape(pstar)[1], np.shape(pstar)[2], band)
    return as_lanes(pstar)


def _whole_tile(
    pl: np.ndarray, params: PHMMParams, band: BandSpec | None
) -> tuple[LaneTile, np.ndarray]:
    N, M, B = pl.shape
    tile = LaneTile(N, M, B, band, depth=N + 1, occupancy=True, edge=band is not None)
    return tile, tile.forward(pl, params)


def forward_batch(
    pstar: np.ndarray, params: PHMMParams, mode: str = "semiglobal", band: BandSpec | None = None
) -> ForwardResult:
    """The forward pass over a ``(B, N, M)`` emission batch."""
    pl = _batch_lanes(pstar, mode, band)
    N, M, B = pl.shape
    charge_pass("forward", B, N, M, band)
    tile, loglik = _whole_tile(pl, params, band)
    fM, fGX, fGY, log_scale = tile.views("forward")
    return ForwardResult(fM, fGX, fGY, log_scale, loglik, tile, pl)


def backward_batch(
    pstar: np.ndarray, params: PHMMParams, mode: str = "semiglobal", band: BandSpec | None = None
) -> BackwardResult:
    """The backward pass over a batch, kept whole.  The kernel deposits as
    it goes, so this runs the forward pass it needs first, and discards the
    deposit (of uniform PWMs)."""
    pl = _batch_lanes(pstar, mode, band)
    N, M, B = pl.shape
    charge_pass("backward", B, N, M, band)
    tile, _ = _whole_tile(pl, params, band)
    tile.backward(pl, np.full((B, N, 4), 0.25), params)
    return BackwardResult(*tile.views("backward"))
