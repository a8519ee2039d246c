"""Continuous negative-multinomial test helpers: samplers and oracles.

The paper models the accumulated z-vector as "continuous negative
multinomial" with base proportions ``p``.  For testing and calibration we
need to *sample* plausible z-vectors under the null (uniform background) and
under alternatives (dominant base + background), and to evaluate the
log-likelihood the LRT maximises.  A Dirichlet-scaled construction matches
the continuous, overdispersed character of PHMM mass accumulation well
enough for the statistical tests to exercise every code path.
"""

from __future__ import annotations

import numpy as np

from repro.errors import CallingError
from repro.util.rng import resolve_rng


def loglik(z: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Multinomial-kernel log-likelihood ``sum_k z_k log p_k`` (vectorised).

    This is the kernel the LRT ratio is built from; constants independent of
    ``p`` cancel in the ratio and are omitted.
    """
    z = np.asarray(z, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    if z.shape[1] != p.shape[-1]:
        raise CallingError("z and p channel counts differ")
    if (p < 0).any() or not np.allclose(p.sum(axis=-1), 1.0, atol=1e-6):
        raise CallingError("p must be a probability vector")
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(z > 0, z * np.log(np.maximum(p, 1e-300)), 0.0)
        # z_k > 0 with p_k == 0 is impossible under the model
        bad = (z > 0) & (p <= 0)
        terms = np.where(bad, -np.inf, terms)
    return terms.sum(axis=1)


def mle_monoploid(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """H1 maximum-likelihood estimates ``(p_top, p_rest)`` per position.

    ``p_top = z_(5)/n`` and ``p_rest = (n - z_(5)) / (4 n)`` as in the paper.
    Positions with ``n == 0`` return the null value 0.2 for both.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim == 1:
        z = z[None, :]
    n = z.sum(axis=1)
    z5 = z.max(axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        p_top = np.where(n > 0, z5 / np.maximum(n, 1e-300), 0.2)
        p_rest = np.where(n > 0, (n - z5) / np.maximum(4.0 * n, 1e-300), 0.2)
    return p_top, p_rest


def sample_null(
    n_positions: int,
    depth: float,
    concentration: float = 20.0,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Sample background z-vectors: no dominant base.

    Each position draws channel proportions from a symmetric Dirichlet and
    scales by a Gamma-perturbed depth, yielding continuous, overdispersed
    vectors whose expected proportions are uniform.
    """
    if n_positions < 0 or depth < 0:
        raise CallingError("n_positions and depth must be non-negative")
    if concentration <= 0:
        raise CallingError("concentration must be positive")
    rng = resolve_rng(seed)
    props = rng.dirichlet(np.full(5, concentration), size=n_positions)
    depths = depth * rng.gamma(shape=10.0, scale=0.1, size=n_positions)
    return props * depths[:, None]


def sample_alternative(
    n_positions: int,
    depth: float,
    dominant_channel: int,
    purity: float = 0.9,
    concentration: float = 20.0,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Sample z-vectors with one dominant channel (a real base/SNP signal).

    ``purity`` is the expected fraction of mass on the dominant channel; the
    remainder spreads over the other four channels Dirichlet-style.
    """
    if not 0 <= dominant_channel < 5:
        raise CallingError(f"dominant_channel must be 0-4, got {dominant_channel}")
    if not 0.0 < purity <= 1.0:
        raise CallingError(f"purity must be in (0, 1], got {purity}")
    rng = resolve_rng(seed)
    alphas = np.full(5, concentration * (1.0 - purity) / 4.0)
    alphas[dominant_channel] = concentration * purity
    props = rng.dirichlet(np.maximum(alphas, 1e-3), size=n_positions)
    depths = depth * rng.gamma(shape=10.0, scale=0.1, size=n_positions)
    return props * depths[:, None]


def sample_heterozygous(
    n_positions: int,
    depth: float,
    channel_a: int,
    channel_b: int,
    purity: float = 0.9,
    concentration: float = 20.0,
    seed: "int | np.random.Generator | None" = None,
) -> np.ndarray:
    """Sample z-vectors with two co-dominant channels (a het site)."""
    if channel_a == channel_b:
        raise CallingError("heterozygous channels must differ")
    for c in (channel_a, channel_b):
        if not 0 <= c < 5:
            raise CallingError(f"channel must be 0-4, got {c}")
    rng = resolve_rng(seed)
    alphas = np.full(5, concentration * (1.0 - purity) / 3.0)
    alphas[channel_a] = concentration * purity / 2.0
    alphas[channel_b] = concentration * purity / 2.0
    props = rng.dirichlet(np.maximum(alphas, 1e-3), size=n_positions)
    depths = depth * rng.gamma(shape=10.0, scale=0.1, size=n_positions)
    return props * depths[:, None]
