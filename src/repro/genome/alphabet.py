"""Nucleotide alphabet, integer codes, and complement operations.

The whole library works on ``uint8`` code arrays.  Codes are::

    A = 0, C = 1, G = 2, T = 3, N = 4

``N`` stands for an unknown reference base; it never appears in simulated
reads but may appear in references.  The accumulator additionally tracks a
*gap* channel; :data:`GAP` (= 4) indexes that channel in 5-vectors
``(A, C, G, T, gap)`` — note the deliberate reuse of slot 4: a z-vector's
fifth slot is gap mass, while in a *sequence* code 4 means N.  The two never
mix because z-vectors are not sequences.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SequenceError

A: int = 0
C: int = 1
G: int = 2
T: int = 3
N: int = 4
#: Index of the gap channel in (A, C, G, T, gap) 5-vectors.
GAP: int = 4

#: The four callable bases, in code order.
BASES: tuple[int, ...] = (A, C, G, T)

CODE_TO_CHAR: str = "ACGTN"

#: Channel labels for 5-vectors (A, C, G, T, gap).
CHANNELS: tuple[str, ...] = ("A", "C", "G", "T", "gap")

# Character -> code lookup covering upper and lower case; everything else maps
# to 255 which is rejected by ``encode``.
_CHAR_TO_CODE = np.full(256, 255, dtype=np.uint8)
for _i, _ch in enumerate(CODE_TO_CHAR):
    _CHAR_TO_CODE[ord(_ch)] = _i
    _CHAR_TO_CODE[ord(_ch.lower())] = _i

# Complement in code space: A<->T, C<->G, N->N.
_COMPLEMENT = np.array([T, G, C, A, N], dtype=np.uint8)

#: ``TRANSITION_OF[b]`` is the transition partner of base ``b`` (A<->G, C<->T).
TRANSITION_OF = np.array([G, T, A, C], dtype=np.uint8)


def encode(seq: str) -> np.ndarray:
    """Encode a nucleotide string to a ``uint8`` code array.

    Accepts upper- or lower-case ``ACGTN``.  Raises :class:`SequenceError` on
    any other character, non-ASCII included, naming the first offender and
    its position.
    """
    # A non-ASCII character becomes one '?', which maps to 255 like any
    # other invalid one, so positions stay those of ``seq``.
    raw = np.frombuffer(seq.encode("ascii", errors="replace"), dtype=np.uint8)
    codes = _CHAR_TO_CODE[raw]
    bad = np.nonzero(codes == 255)[0]
    if bad.size:
        pos = int(bad[0])
        raise SequenceError(
            f"invalid nucleotide {seq[pos]!r} at position {pos}"
        )
    return codes


def decode(codes: np.ndarray) -> str:
    """Decode a code array back to an upper-case string.

    Raises :class:`SequenceError` for out-of-range codes.
    """
    codes = np.asarray(codes)
    if codes.size and (codes.min() < 0 or codes.max() > N):
        raise SequenceError("code array contains values outside [0, 4]")
    return "".join(CODE_TO_CHAR[int(c)] for c in codes)


def is_valid_codes(codes: np.ndarray) -> bool:
    """True when every element is a legal base code (N included)."""
    codes = np.asarray(codes)
    if codes.size == 0:
        return True
    return bool((codes >= 0).all() and (codes <= N).all())


def reverse_complement(codes: np.ndarray) -> np.ndarray:
    """Reverse-complement a code array (returns a new array)."""
    codes = np.asarray(codes, dtype=np.uint8)
    if not is_valid_codes(codes):
        raise SequenceError("cannot complement invalid codes")
    return _COMPLEMENT[codes[::-1]].copy()


def reverse_complement_string(seq: str) -> str:
    """Reverse-complement a nucleotide string."""
    return decode(reverse_complement(encode(seq)))
