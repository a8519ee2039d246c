"""A fixed reference computation that prices the machine, not the program.

The containers this benchmark runs in drift: over minutes the same
repetition gets 15-25% slower and faster again (shared host, see
README.md "Machine drift").  Ten runs of one commit then spread wider than
the regressions the ledger is meant to catch.  So every timed operation is
bracketed by this kernel, whose cost depends only on the machine, and
end-to-end times are reported at *reference speed*:

    normalised = measured * REFERENCE_SECONDS / kernel seconds around it

The kernel mixes the two regimes the program spends its time in — streaming
arithmetic over a few-MB float array (the Pair-HMM row sweep) and many small
NumPy calls on read-sized arrays (seeding) — and touches nothing in
``repro``, so no change to the program can move it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.signal import lfilter

#: Median kernel time on the container the baseline in README.md was taken
#: on; normalised metrics read as that container's numbers at typical speed.
REFERENCE_SECONDS = 0.065

_rng = np.random.default_rng(20120521)
_BLOCK = _rng.random((256, 63, 71))
_CODES = _rng.integers(0, 4, size=4_000).astype(np.int64)
_WEIGHTS = (1 << (2 * np.arange(9, -1, -1))).astype(np.int64)
_TABLE = np.sort(_rng.integers(0, 4**10, size=100_000))


def kernel_seconds() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    for _ in range(2):
        acc = np.zeros((256, 71))
        for i in range(63):
            row = _BLOCK[:, i, :] * 0.9 + acc * 0.1
            acc = lfilter([1.0], [1.0, -0.3], row, axis=-1)
            acc /= acc.max(axis=1)[:, None]
        np.einsum("bij,bij->bj", _BLOCK * _BLOCK, _BLOCK)
        for i in range(600):
            read = _CODES[i : i + 62]
            packed = np.lib.stride_tricks.sliding_window_view(read, 10) @ _WEIGHTS
            hits = np.searchsorted(_TABLE, packed)
            np.unique(hits - np.arange(hits.size))
    return time.perf_counter() - t0


class Bracket:
    """Kernel samples taken between timed operations.

    ``speed()`` after each operation returns the machine's speed relative
    to the reference (1.0 = reference, < 1 = slower) from the kernel samples
    on either side of that operation; each sample is shared by the two
    operations it separates.
    """

    def __init__(self) -> None:
        self.cpu_seconds = 0.0
        self.speeds: "list[float]" = []
        self._before = self._sample()

    def _sample(self) -> float:
        c0 = time.process_time()
        seconds = kernel_seconds()
        self.cpu_seconds += time.process_time() - c0
        return seconds

    def speed(self) -> float:
        after = self._sample()
        speed = REFERENCE_SECONDS / ((self._before + after) / 2.0)
        self._before = after
        self.speeds.append(speed)
        return speed
