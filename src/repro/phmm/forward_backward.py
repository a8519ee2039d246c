"""Lane-major Pair-HMM kernels: emissions, and the forward/backward pair.

This is the hot path of the whole system (DESIGN §5, §12):

* **The pair is the lane.**  DP state is stored ``(N+1, 3, width, B)`` —
  batch innermost — so a DP row of all ``B`` pairs is one contiguous
  block.  The row recurrences are C loops over that block (``_lanes.c``,
  loaded by :mod:`repro.phmm.lanes`): one sweep computes a row, lanes
  innermost, and a second scales it; :class:`LaneTile` holds a tile's
  buffers, views of one :class:`Workspace`, and makes the two calls.
* **Emissions are a table**: the C loops read ``p*(i, j)`` as entry
  ``code[j-1]`` of row ``i-1`` of the ``(N, 5, B)`` :func:`emission_table`,
  for in-band cells only; the whole-batch drivers hand in any ``p*`` as an
  ``(N, M, B)`` table under the identity codes.
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
columns ``lo..hi``; a row holds one more column each side, and the kernels
write zeros there: no path enters from outside the band.  No band is
the band whose every row spans ``[0, M]`` — the same code, bit for bit.  A
full pass charges its ``B*N*M`` cells to ``phmm.cells_full``, a banded one
its ``B*band.n_cells()`` to ``phmm.cells_banded``; either also charges
``phmm.forward_cells``/``phmm.backward_cells``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.errors import AlignmentError
from repro.observability import current as metrics
from repro.phmm import sanitize
from repro.phmm.banded import BandSpec
from repro.phmm.lanes import LIB
from repro.phmm.model import PHMMParams

LN2 = float(np.log(2.0))
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


def emission_table(pwms: np.ndarray, params: PHMMParams) -> np.ndarray:
    """``(B, N, 5)`` match emissions of each read row against each genome
    code (N = 4 included): ``T[b, i, y] = sum_k pwm[b,i,k] p[k, y]``."""
    return np.matmul(pwms, params.emission)


def emissions_batch(pwms: np.ndarray, windows: np.ndarray, params: PHMMParams) -> np.ndarray:
    """Quality-aware match emissions ``p*`` for a batch.

    ``pwms`` are ``(B, N, 4)`` read PWMs, ``windows`` ``(B, M)`` genome window
    codes (N = 4 allowed), ``params`` supplies the ``p[k, y]`` table.  Returns
    the ``(B, N, M)`` ``p*[b, i, j] = T[b, i, window[b, j]]`` of
    :func:`emission_table` ``T``: the kernels' own entries, bit for bit.
    """
    pwms, windows = check_pairs(pwms, windows)
    return np.take_along_axis(emission_table(pwms, params), windows[:, None, :], axis=2)


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


class Workspace:
    """Grow-only memory one pipeline's lane tiles are cut from (DESIGN §5):
    every call views the same pages at its own strides, never initialised,
    as each kernel row writes every column it holds before it is read."""

    def __init__(self) -> None:
        self.buffers: dict[type, np.ndarray] = {
            np.float64: np.zeros(0), np.intc: np.zeros(0, dtype=np.intc)
        }

    def cut(self, dtype: type, *shapes: "tuple[int, ...] | None") -> list[Any]:
        """C-contiguous views, one per shape (``None`` for ``None``), each
        on a 64-byte boundary of the ``dtype`` buffer, grown first if need
        be; the buffers' bytes go to the ``phmm.workspace_bytes`` gauge."""
        sizes = [0 if shape is None else int(np.prod(shape)) for shape in shapes]
        starts = np.cumsum([0] + [-(-size // 16) * 16 for size in sizes]).tolist()
        if starts[-1] > self.buffers[dtype].size:
            self.buffers[dtype] = np.empty(starts[-1], dtype=dtype)
        buffer = self.buffers[dtype]
        metrics().gauge_max("phmm.workspace_bytes", sum(b.nbytes for b in self.buffers.values()))
        return [
            None if shape is None else buffer[start : start + size].reshape(shape)
            for shape, size, start in zip(shapes, sizes, starts)
        ]


class LaneTile:
    """The buffers of one lane tile of ``(N, M)`` pairs and its two kernel
    calls, cut from ``workspace`` (a private one by default) and reused by
    equal tiles.

    :meth:`load` fills the ``(N, columns, lanes)`` emission ``table`` and
    the ``(M, lanes)`` window ``codes``.  DP row ``i`` holds ``width``
    columns from ``base[i]``: all ``M+1`` unbanded, the band and its halo
    when banded.  ``depth`` is the backward store's: ``2`` is the ring the
    pipeline runs on, ``N+1`` keeps every row (the sanitizer and the
    tests).  ``occupancy`` and ``edge`` switch on the outputs no default
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
        columns: int = 5,
        workspace: Workspace | None = None,
    ) -> None:
        self.shape, self.band = (N, columns, lanes), band
        bounds = np.array([[0, M]] * (N + 1)) if band is None else band.bounds()
        self.bounds = bounds.astype(np.intc)
        self.width = M + 1 if band is None else min(M + 1, 2 * band.width + 3)
        # The band of row i is i + center +- width; its halo one more.
        first = np.arange(N + 1) + (0 if band is None else band.center - band.width - 1)
        self.base = np.clip(first, 0, M + 1 - self.width).astype(np.intc)
        workspace = workspace or Workspace()
        row, audit = (3, self.width, lanes), edge and band is not None
        (self.state, self.store, self.table, self.pwms, self.total, self.z, self.occ,
         self.cells, self.edge) = workspace.cut(
            np.float64, (N + 1, *row), (depth, *row), self.shape, (N, 4, lanes), (lanes,),
            (5, M, lanes), (M, lanes) if occupancy else None,
            (N + 1, 2, lanes) if audit else None, (lanes,) if audit else None,
        )
        self.f_exp, self.b_exp, self.codes = workspace.cut(
            np.intc, (N + 1, lanes), (N + 1, lanes), (M, lanes)
        )
        self.edges: np.ndarray | None = None
        if band is not None and audit:
            edges = band.edges()
            self.edges = np.where(edges >= 1, edges, -1).astype(np.intc)

    def load(self, table: np.ndarray, windows: np.ndarray) -> None:
        """Store a ``(lanes, N, columns)`` emission table lane-major and the
        ``(lanes, M)`` window codes that index its columns."""
        if windows.size and not 0 <= windows.min() <= windows.max() < self.shape[1]:
            raise AlignmentError(f"window codes must index the {self.shape[1]} table columns")
        np.copyto(self.table, table.transpose(1, 2, 0))
        np.copyto(self.codes, windows.T)

    def forward(self, table: np.ndarray, params: PHMMParams) -> np.ndarray:
        """Fill the forward state from a lane-major emission table
        ``(N, columns, lanes)``; returns the pairs' ``loglik``."""
        N, K, B = self.shape
        LIB.forward(
            N, B, K, self.width, self._table(table), _ptr(self.codes), _ptr(self.bounds),
            _ptr(self.base), *_params(params), _ptr(self.state), _ptr(self.f_exp),
        )
        # Free genome suffix, summed along a contiguous j axis of all M+1
        # columns: NumPy's pairwise summation, which a sum down the
        # lane-major rows would not use.
        last = self._whole(self.state[N:], self.base[N:])[0].transpose(0, 2, 1)
        total = np.add(last[ST_M].copy().sum(1), last[ST_GX].copy().sum(1), out=self.total)
        with np.errstate(divide="ignore"):
            return np.log(np.maximum(total, 0.0)) + self.f_exp[N] * LN2

    def backward(self, table: np.ndarray, pwms: np.ndarray, params: PHMMParams) -> None:
        """Run the backward pass after :meth:`forward` on the same table and
        deposit it: ``z`` (and ``occ``, ``edge`` when cut) for the
        ``(lanes, N, 4)`` PWMs.  Pairs with ``loglik = -inf`` deposit zeros."""
        N, K, B = self.shape
        np.copyto(self.pwms, pwms.transpose(1, 2, 0))
        LIB.backward_deposit(
            N, self.codes.shape[0], B, K, self.width, self._table(table), _ptr(self.codes),
            _ptr(self.pwms), _ptr(self.bounds), _ptr(self.base), *_params(params),
            self.store.shape[0], _ptr(self.store), _ptr(self.b_exp),
            _ptr(self.state), _ptr(self.f_exp), _ptr(self.total),
            _ptr(self.z), _ptr(self.occ), _ptr(self.edges), _ptr(self.cells),
            _ptr(self.edge),
        )

    def _table(self, table: np.ndarray) -> int | None:
        """``table``'s address, once it is known to be what the C loops read."""
        if table.shape != self.shape or table.dtype != np.float64 or not table.flags.c_contiguous:
            raise AlignmentError(
                f"lane emissions must be C-contiguous float64 {self.shape}, "
                f"got {table.dtype} {table.shape}"
            )
        return _ptr(table)

    def _whole(self, rows: np.ndarray, base: np.ndarray) -> np.ndarray:
        """DP rows ``(n, 3, width, B)`` held from columns ``base`` as
        ``(n, 3, M+1, B)``, zero where no row holds a column (``rows``
        itself when every row holds all ``M+1``)."""
        if self.width == self.codes.shape[0] + 1:
            return rows
        whole = np.zeros((*rows.shape[:2], self.codes.shape[0] + 1, rows.shape[3]))
        for row, held, c in zip(whole, rows, base.tolist()):
            row[:, c : c + self.width] = held
        return whole

    def views(self, kind: str) -> tuple[np.ndarray, ...]:
        """``(B, N+1, M+1)`` views (copies when banded) of a pass's three
        states and its ``(B, N+1)`` log scales (``"backward"``: only with
        depth ``N+1``)."""
        state, exps = (self.state, self.f_exp) if kind == "forward" else (self.store, self.b_exp)
        whole = self._whole(state, self.base)
        return (*(whole[:, s].transpose(2, 0, 1) for s in (ST_M, ST_GX, ST_GY)), exps.T * LN2)

    def check(self, kind: str, loglik: np.ndarray | None = None) -> None:
        """Hand a pass to the sanitizer (:func:`repro.phmm.sanitize.check_pass`)."""
        *states, log_scale = self.views(kind)
        sanitize.check_pass(kind, states, log_scale, self.band, loglik=loglik)


def _params(params: PHMMParams) -> tuple[float, ...]:
    return params.q, params.T_MM, params.T_GM, params.T_MG, params.T_GG


# Whole-batch drivers.  The pipeline never keeps a backward pass; these run
# the same two LaneTile calls over a whole batch with the backward store at
# depth N+1, p* as the table under the identity codes, and hand back every
# matrix as (B, N+1, M+1) arrays, for the tests and for the ledger's
# split-kernel replay.


@dataclass
class ForwardResult:
    """Scaled forward matrices: the true value is
    ``fM[b, i, j] * exp(log_scale[b, i])``; ``loglik`` per pair.  ``tile``
    is what a posterior pass re-enters."""

    fM: np.ndarray
    fGX: np.ndarray
    fGY: np.ndarray
    log_scale: np.ndarray
    loglik: np.ndarray
    tile: LaneTile


@dataclass
class BackwardResult:
    """Scaled backward matrices; true value ``bM[b,i,j] * exp(log_scale[b,i])``."""

    bM: np.ndarray
    bGX: np.ndarray
    bGY: np.ndarray
    log_scale: np.ndarray


def _whole_tile(
    kind: str, pstar: np.ndarray, params: PHMMParams, mode: str, band: BandSpec | None
) -> tuple[LaneTile, np.ndarray]:
    """A private depth ``N+1`` tile of ``(B, N, M)`` ``pstar`` under the
    identity codes, its ``kind`` pass charged, after its forward pass."""
    _check_kernel(mode)
    if np.ndim(pstar) != 3:
        raise AlignmentError(f"pstar must be (B, N, M), got {np.shape(pstar)}")
    B, N, M = np.shape(pstar)
    check_shape(N, M, band)
    charge_pass(kind, B, N, M, band)
    tile = LaneTile(N, M, B, band, depth=N + 1, occupancy=True, edge=True, columns=M)
    tile.load(np.asarray(pstar, dtype=np.float64), np.broadcast_to(np.arange(M), (B, M)))
    return tile, tile.forward(tile.table, params)


def forward_batch(
    pstar: np.ndarray, params: PHMMParams, mode: str = "semiglobal", band: BandSpec | None = None
) -> ForwardResult:
    """The forward pass over a ``(B, N, M)`` emission batch."""
    tile, loglik = _whole_tile("forward", pstar, params, mode, band)
    fM, fGX, fGY, log_scale = tile.views("forward")
    return ForwardResult(fM, fGX, fGY, log_scale, loglik, tile)


def backward_batch(
    pstar: np.ndarray, params: PHMMParams, mode: str = "semiglobal", band: BandSpec | None = None
) -> BackwardResult:
    """The backward pass over a batch, kept whole.  The kernel deposits as
    it goes, so this runs the forward pass it needs first, and discards the
    deposit (of uniform PWMs)."""
    tile, _ = _whole_tile("backward", pstar, params, mode, band)
    tile.backward(tile.table, np.full(np.shape(pstar)[:2] + (4,), 0.25), params)
    return BackwardResult(*tile.views("backward"))
