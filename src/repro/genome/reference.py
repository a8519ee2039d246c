"""Reference genome container.

A :class:`Reference` is a named, immutable code array plus the window/segment
arithmetic used by the seeding layer (candidate-region extraction with
clamped padding) and the memory-spread parallel mode (contiguous genome
segments per rank).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import SequenceError
from repro.genome.alphabet import decode, encode, is_valid_codes


@dataclass(frozen=True)
class Segment:
    """Half-open genome interval ``[start, stop)`` owned by one rank."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop < self.start:
            raise SequenceError(f"invalid segment [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start

    def contains(self, pos: "int | np.ndarray") -> "bool | np.ndarray":  # elementwise
        return (self.start <= pos) & (pos < self.stop)


class Reference:
    """An immutable reference sequence with window helpers.

    Parameters
    ----------
    codes:
        ``uint8`` code array (A=0..N=4); copied and marked read-only.
    name:
        Record name, defaults to ``"ref"``.
    copy:
        Copy ``codes`` (default).  ``copy=False`` wraps the caller's buffer
        directly — used by pool workers to view a shared-memory segment
        zero-copy; the caller guarantees the buffer outlives the Reference
        and is never written.
    """

    def __init__(
        self, codes: np.ndarray, name: str = "ref", *, copy: bool = True
    ) -> None:
        codes = np.asarray(codes, dtype=np.uint8)
        if copy:
            codes = codes.copy()
        if codes.ndim != 1:
            raise SequenceError("reference must be a 1-D code array")
        if codes.size == 0:
            raise SequenceError("reference must be non-empty")
        if not is_valid_codes(codes):
            raise SequenceError("reference contains invalid codes")
        codes.setflags(write=False)
        self._codes = codes
        self.name = name

    @classmethod
    def from_string(cls, seq: str, name: str = "ref") -> "Reference":
        """Build from an ``ACGTN`` string."""
        return cls(encode(seq), name=name)

    @property
    def codes(self) -> np.ndarray:
        """The read-only code array."""
        return self._codes

    def __len__(self) -> int:
        return int(self._codes.size)

    def __getitem__(self, idx: "int | slice | np.ndarray") -> np.ndarray:
        return self._codes[idx]

    @property
    def sequence(self) -> str:
        """Whole reference as a string (intended for small genomes/tests)."""
        return decode(self._codes)

    def window(self, start: int, length: int) -> tuple[int, np.ndarray]:
        """Return ``(clamped_start, codes)`` for a window of ``length`` bases.

        The window is clamped to the genome boundaries; near an edge it may be
        shorter than requested.  ``length`` must be positive.
        """
        if length <= 0:
            raise SequenceError(f"window length must be positive, got {length}")
        lo = max(0, start)
        hi = min(len(self), start + length)
        if lo >= hi:
            raise SequenceError(
                f"window [{start}, {start + length}) lies outside the genome"
            )
        return lo, self._codes[lo:hi]

    def split(self, parts: int) -> list[Segment]:
        """Split the genome into ``parts`` contiguous near-equal segments.

        Used by the memory-spread parallel mode.  Segments cover the genome
        exactly and differ in length by at most one base.
        """
        if parts <= 0:
            raise SequenceError(f"cannot split into {parts} parts")
        if parts > len(self):
            raise SequenceError(
                f"cannot split {len(self)} bases into {parts} non-empty parts"
            )
        bounds = np.linspace(0, len(self), parts + 1).astype(np.int64)
        return [Segment(int(bounds[i]), int(bounds[i + 1])) for i in range(parts)]

    def gc_content(self) -> float:
        """Fraction of called bases that are G or C (N excluded)."""
        called = self._codes[self._codes <= 3]
        if called.size == 0:
            return 0.0
        return float(np.isin(called, (1, 2)).mean())
