"""p-values, the paper's Bonferroni cutoff, and Benjamini–Hochberg FDR.

The paper compares ``-2 log lambda`` with the ``(1 - alpha/5)`` quantile of
chi^2_1 — an alpha/5 Bonferroni adjustment justified by "testing each base
(A, C, G, T, gap) vs background (5 tests)" to sidestep the identifiability
violation of the max-based test.  :func:`significance_threshold` implements
exactly that cutoff; :func:`benjamini_hochberg` is the FDR alternative the
abstract offers.

Both chi^2_1 functions are the :mod:`scipy.special` calls that
``scipy.stats.chi2`` makes itself (``chdtrc`` for ``sf``, ``2 gammaincinv(1/2,
.)`` for ``ppf``), bit for bit: ``scipy.stats`` costs a pool worker most of its
import time, and nothing else in the package needs it.
"""

from __future__ import annotations

import numpy as np
from scipy import special

from repro.errors import CallingError


def chi2_pvalue(stat: np.ndarray) -> np.ndarray:
    """Upper-tail chi^2_1 p-value of an LRT statistic (vectorised)."""
    stat = np.asarray(stat, dtype=np.float64)
    if (stat < -1e-9).any():
        raise CallingError("LRT statistics must be non-negative")
    return special.chdtrc(1, np.maximum(stat, 0.0))


def significance_threshold(alpha: float = 0.001) -> float:
    """The paper's critical value: chi^2_1 quantile at ``1 - alpha/5``.

    A position is significant when its statistic exceeds this value —
    equivalently when its p-value is below ``alpha/5``.
    """
    if not 0.0 < alpha < 1.0:
        raise CallingError(f"alpha must be in (0, 1), got {alpha}")
    return float(2 * special.gammaincinv(0.5, 1.0 - alpha / 5.0))


def benjamini_hochberg(pvalues: np.ndarray, fdr: float = 0.05) -> np.ndarray:
    """Benjamini–Hochberg step-up procedure.

    Returns a boolean mask of rejected hypotheses controlling the false
    discovery rate at ``fdr``.  Empty input returns an empty mask.
    """
    if not 0.0 < fdr < 1.0:
        raise CallingError(f"fdr must be in (0, 1), got {fdr}")
    p = np.asarray(pvalues, dtype=np.float64)
    if p.ndim != 1:
        raise CallingError(f"pvalues must be 1-D, got shape {p.shape}")
    if p.size == 0:
        return np.zeros(0, dtype=bool)
    if (p < 0).any() or (p > 1).any():
        raise CallingError("pvalues must lie in [0, 1]")
    m = p.size
    order = np.argsort(p, kind="stable")
    ranked = p[order]
    thresholds = fdr * (np.arange(1, m + 1) / m)
    below = np.nonzero(ranked <= thresholds)[0]
    mask = np.zeros(m, dtype=bool)
    if below.size:
        k = below[-1]
        mask[order[: k + 1]] = True
    return mask
