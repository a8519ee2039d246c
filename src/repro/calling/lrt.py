"""Likelihood-ratio statistics on accumulated z-vectors.

The accumulated evidence at a genome position is
``z = (z_A, z_C, z_G, z_T, z_gap)`` — continuous, because each read
contributes posterior *mass*, not integer counts.  Under the paper's
continuous negative-multinomial assumption the LRT statistics are:

Monoploid (Eq. 1)::

    H0: all five proportions equal (= 0.2)
    H1: the top proportion exceeds the (tied) remaining four

    lambda(z) = 0.2^n / (p5^z5 * p4^(n - z5)),
    p5 = z5 / n,   p4 = (n - z5) / (4 n)

Diploid (Eq. 2) adds the heterozygous alternative with the top *two*
proportions free::

    lambda(z) = 0.2^n / max(L_hom, L_het)
    L_het = p5~^z5 * p4~^z4 * p3~^(n - z5 - z4),
    p5~ = z5/n, p4~ = z4/n, p3~ = (n - z5 - z4) / (3 n)

All statistics are returned as ``-2 log lambda`` (asymptotically chi^2_1 per
the paper), computed in log space with the ``x log x -> 0`` convention.
Everything is vectorised over positions: inputs are ``(P, 5)`` arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CallingError

_LOG02 = np.log(0.2)


def _validate_z(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.ndim != 2 or z.shape[1] != 5:
        raise CallingError(f"z must be (P, 5), got shape {z.shape}")
    if (z < -1e-9).any():
        raise CallingError("z-vector components must be non-negative")
    return np.maximum(z, 0.0)


def _xlogx(x: np.ndarray) -> np.ndarray:
    """``x * log(x)`` with the 0 log 0 = 0 convention."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x > 0, x * np.log(np.maximum(x, 1e-300)), 0.0)


def lrt_statistic_monoploid(z: np.ndarray) -> np.ndarray:
    """``-2 log lambda`` per position for the monoploid test.

    Accepts ``(P, 5)`` (or a single 5-vector) and returns ``(P,)``.
    Positions with no evidence (``n == 0``) get statistic 0.
    """
    z = _validate_z(z)
    n = z.sum(axis=1)
    z5 = z.max(axis=1)
    # log L1 = z5 log(z5/n) + (n - z5) log((n - z5) / (4n))
    rest = n - z5
    logL1 = (
        _xlogx(z5)
        + _xlogx(rest)
        - rest * np.log(4.0)
        - np.where(n > 0, n * np.log(np.maximum(n, 1e-300)), 0.0)
    )
    logL0 = n * _LOG02
    stat = 2.0 * (logL1 - logL0)
    # Clamp tiny negatives from float error; H1 nests H0 so stat >= 0.
    return np.where(n > 0, np.maximum(stat, 0.0), 0.0)


#: Het-vs-hom margin: the chi^2_1 quantile at p = 0.01.  Calibrated against
#: simulated 12x data, homozygous-background margins stay below ~5 while true
#: 50/50 heterozygotes reach 7-25 — see tests/calling/test_lrt.py.
HET_MARGIN = 6.63


def lrt_statistic_diploid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diploid ``-2 log lambda`` plus which alternative won.

    Returns ``(stat, het)``.  The heterozygous alternative *nests* the
    homozygous one (one extra free proportion), so its likelihood is never
    lower; declaring ``het`` on a bare likelihood comparison would flag
    nearly every homozygous site on ordinary sequencing noise.  The genotype
    decision is therefore itself a nested LRT: ``het[p]`` is True only when
    ``2 * (logL_het - logL_hom) > HET_MARGIN``, i.e. the extra allele is
    significant in its own right.  :data:`HET_MARGIN` is chi^2_1 at
    p = 0.01: a true 50/50 het at depth >= ~7 clears it, a noisy second
    channel does not.  The returned *statistic* uses the unpenalised
    maximum, exactly as the paper's lambda.
    """
    z = _validate_z(z)
    n = z.sum(axis=1)
    order = np.sort(z, axis=1)
    z5 = order[:, -1]
    z4 = order[:, -2]
    rest1 = n - z5
    logL_hom = (
        _xlogx(z5)
        + _xlogx(rest1)
        - rest1 * np.log(4.0)
        - np.where(n > 0, n * np.log(np.maximum(n, 1e-300)), 0.0)
    )
    rest2 = n - z5 - z4
    logL_het = (
        _xlogx(z5)
        + _xlogx(z4)
        + _xlogx(rest2)
        - rest2 * np.log(3.0)
        - np.where(n > 0, n * np.log(np.maximum(n, 1e-300)), 0.0)
    )
    het = 2.0 * (logL_het - logL_hom) > HET_MARGIN
    logL1 = np.maximum(logL_hom, logL_het)
    stat = 2.0 * (logL1 - n * _LOG02)
    return np.where(n > 0, np.maximum(stat, 0.0), 0.0), het


def top_channels(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the largest and second-largest channels per position.

    Ties break toward the lower channel index (deterministic).
    """
    z = _validate_z(z)
    # argsort is ascending; take the last two columns. For stable
    # deterministic tie-breaking use a tiny index-based epsilon.
    tie_break = -np.arange(5) * 1e-12
    adjusted = z + tie_break[None, :]
    order = np.argsort(adjusted, axis=1)
    return order[:, -1], order[:, -2]
