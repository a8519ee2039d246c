"""Position-weight matrices from read qualities.

The paper's quality-aware emission is ``p*(i,j) = sum_k r_ik p_{k, y_j}``
where ``r_ik`` is the probability that the true base at read position ``i``
is ``k`` given the sequencer's call and quality.  With a called base ``c`` of
error probability ``e``, the standard decomposition is ``r_ic = 1 - e`` and
``r_ik = e / 3`` for the other three bases — a proper distribution per row.
"""

from __future__ import annotations

import numpy as np

from repro.errors import SequenceError
from repro.genome.fastq import Read


def pwm_from_read(read: Read) -> np.ndarray:
    """Build an ``(N, 4)`` PWM from a read's bases and qualities.

    Row ``i`` is the probability distribution of the true base at position
    ``i``: ``1 - e_i`` on the called base, ``e_i / 3`` elsewhere.
    """
    return pwm_from_codes(read.codes, read.error_probabilities())


def pwm_from_codes(codes: np.ndarray, error_probs: np.ndarray) -> np.ndarray:
    """PWMs from raw codes and per-base error probabilities.

    ``(..., N)`` codes and probabilities give ``(..., N, 4)``: one read, or a
    block of equal-length reads at once.  Raises :class:`SequenceError` on
    shape mismatch, probabilities outside ``[0, 1]`` (NaN included), or N
    bases (reads never contain N in this pipeline).
    """
    codes = np.asarray(codes)
    errs = np.asarray(error_probs, dtype=np.float64)
    if codes.shape != errs.shape or codes.ndim < 1:
        raise SequenceError("codes and error_probs must have one shape (..., N)")
    if codes.size == 0:
        raise SequenceError("cannot build a PWM for an empty read")
    if (codes > 3).any():
        raise SequenceError("reads must not contain N bases")
    if not ((errs >= 0) & (errs <= 1)).all():
        raise SequenceError("error probabilities must lie in [0, 1]")
    pwm = np.empty(codes.shape + (4,))
    pwm[...] = (errs / 3.0)[..., None]
    pwm.reshape(-1, 4)[np.arange(codes.size), codes.ravel()] = (1.0 - errs).ravel()
    return pwm


def flat_pwm(codes: np.ndarray) -> np.ndarray:
    """Quality-blind PWM: probability 1 on the called base.

    Used by the quality-awareness ablation — this is what a mapper that
    ignores quality scores effectively assumes.
    """
    return pwm_from_codes(codes, np.zeros(np.shape(codes)))


def reverse_complement_pwm(pwm: np.ndarray) -> np.ndarray:
    """PWM of the reverse-complemented read.

    Rows reverse (3'->5') and columns swap A<->T, C<->G, so that
    ``rc(pwm)[i, k]`` is the probability the reverse-complement read's base
    ``i`` is ``k``.
    """
    pwm = np.asarray(pwm)
    if pwm.ndim != 2 or pwm.shape[1] != 4:
        raise SequenceError(f"PWM must be (N, 4), got {pwm.shape}")
    # complement permutation over columns A,C,G,T -> T,G,C,A
    return pwm[::-1, [3, 2, 1, 0]].copy()
