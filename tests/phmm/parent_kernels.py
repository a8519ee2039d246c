"""Frozen oracle: the batch-major Pair-HMM kernels as they stood before the
lane-major rewrite (PR 18's parent commit).

``emissions``/``forward``/``backward``/``posteriors``/``band_edge`` are
verbatim copies of ``emissions_batch``/``forward_batch``/``backward_batch``/
``posteriors_batch``/``band_edge_mass`` with the counters, sanitizer hooks and
input validation removed and the results returned as plain dicts;
``backward_loglik`` (a test-only consistency oracle that used to live in
``src/``) takes the kernels' ``BackwardResult``.  State lives in
``(B, N+1, M+1)`` arrays and every row step is a whole-batch slice operation;
the kernels under ``src/`` must reproduce every array here bit for bit
(:mod:`tests.phmm.test_kernel_oracle`).  Never imported by ``src/``; do not
"improve" it.
"""

import numpy as np
from scipy.signal import lfilter

_TINY = 1e-300


def emissions(pwms, windows, params):
    pwms = np.asarray(pwms, dtype=np.float64)
    emis_cols = params.emission[:, np.asarray(windows)]
    return np.einsum("bik,kbj->bij", pwms, emis_cols, optimize=True)


def forward(pstar, params, mode="semiglobal", band=None):
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = pstar.shape
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    fM = np.zeros((B, N + 1, M + 1))
    fGX = np.zeros((B, N + 1, M + 1))
    fGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    lo0, hi0 = (0, M) if band is None else band.row_bounds(0)
    if mode == "semiglobal":
        if lo0 <= hi0:
            fM[:, 0, lo0 : hi0 + 1] = 1.0
    elif lo0 <= 0 <= hi0:
        fM[:, 0, 0] = 1.0

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])
    log_tiny = np.log(_TINY)

    for i in range(1, N + 1):
        lo, hi = (0, M) if band is None else band.row_bounds(i)
        if lo > hi:
            log_scale[:, i] = log_scale[:, i - 1] + log_tiny
            continue
        jlo = max(lo, 1)
        prevM = fM[:, i - 1, :]
        prevGX = fGX[:, i - 1, :]
        prevGY = fGY[:, i - 1, :]
        rowM = fM[:, i, :]
        if jlo <= hi:
            p_row = pstar[:, i - 1, jlo - 1 : hi]
            rowM[:, jlo : hi + 1] = p_row * (
                TMM * prevM[:, jlo - 1 : hi]
                + TGM * (prevGX[:, jlo - 1 : hi] + prevGY[:, jlo - 1 : hi])
            )
        fGX[:, i, lo : hi + 1] = q * (
            TMG * prevM[:, lo : hi + 1] + TGG * prevGX[:, lo : hi + 1]
        )
        if jlo <= hi:
            drive = q * TMG * rowM[:, jlo - 1 : hi]
            fGY[:, i, jlo : hi + 1] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)
        s = np.maximum(
            np.maximum(
                rowM[:, lo : hi + 1].max(axis=1), fGX[:, i, lo : hi + 1].max(axis=1)
            ),
            fGY[:, i, lo : hi + 1].max(axis=1),
        )
        s = np.maximum(s, _TINY)
        fM[:, i, lo : hi + 1] /= s[:, None]
        fGX[:, i, lo : hi + 1] /= s[:, None]
        fGY[:, i, lo : hi + 1] /= s[:, None]
        log_scale[:, i] = log_scale[:, i - 1] + np.log(s)

    if mode == "semiglobal":
        total = fM[:, N, :].sum(axis=1) + fGX[:, N, :].sum(axis=1)
    else:
        total = fM[:, N, M] + fGX[:, N, M] + fGY[:, N, M]
    with np.errstate(divide="ignore"):
        loglik = np.log(np.maximum(total, 0.0)) + log_scale[:, N]
    return {"fM": fM, "fGX": fGX, "fGY": fGY, "log_scale": log_scale, "loglik": loglik}


def backward(pstar, params, mode="semiglobal", band=None):
    pstar = np.asarray(pstar, dtype=np.float64)
    B, N, M = pstar.shape
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG

    bM = np.zeros((B, N + 1, M + 1))
    bGX = np.zeros((B, N + 1, M + 1))
    bGY = np.zeros((B, N + 1, M + 1))
    log_scale = np.zeros((B, N + 1))

    loN, hiN = (0, M) if band is None else band.row_bounds(N)
    if mode == "semiglobal":
        if loN <= hiN:
            bM[:, N, loN : hiN + 1] = 1.0
            bGX[:, N, loN : hiN + 1] = 1.0
    else:
        if loN <= M <= hiN:
            bM[:, N, M] = 1.0
            bGX[:, N, M] = 1.0
            bGY[:, N, M] = 1.0
        mhi = min(hiN, M - 1)
        for j in range(mhi, loN - 1, -1):
            bGY[:, N, j] = q * TGG * bGY[:, N, j + 1]
        if loN <= mhi:
            bM[:, N, loN : mhi + 1] = q * TMG * bGY[:, N, loN + 1 : mhi + 2]

    gy_filt_b = np.array([1.0])
    gy_filt_a = np.array([1.0, -q * TGG])
    log_tiny = np.log(_TINY)

    for i in range(N - 1, -1, -1):
        lo, hi = (0, M) if band is None else band.row_bounds(i)
        if lo > hi:
            log_scale[:, i] = log_scale[:, i + 1] + log_tiny
            continue
        L = hi - lo + 1
        nextM = bM[:, i + 1, :]
        nextGX = bGX[:, i + 1, :]
        d = np.zeros((B, L))
        dhi = min(hi, M - 1)
        if lo <= dhi:
            d[:, : dhi - lo + 1] = pstar[:, i, lo : dhi + 1] * nextM[:, lo + 1 : dhi + 2]
        if i > 0:
            drive = (TGM * d)[:, ::-1]
            bGY[:, i, lo : hi + 1] = lfilter(gy_filt_b, gy_filt_a, drive, axis=-1)[
                :, ::-1
            ]
        gy_next = np.zeros((B, L))
        gy_next[:, : L - 1] = bGY[:, i, lo + 1 : hi + 1]
        bM[:, i, lo : hi + 1] = TMM * d + q * TMG * (nextGX[:, lo : hi + 1] + gy_next)
        bGX[:, i, lo : hi + 1] = TGM * d + q * TGG * nextGX[:, lo : hi + 1]
        t = np.maximum(
            np.maximum(
                bM[:, i, lo : hi + 1].max(axis=1), bGX[:, i, lo : hi + 1].max(axis=1)
            ),
            bGY[:, i, lo : hi + 1].max(axis=1),
        )
        t = np.maximum(t, _TINY)
        bM[:, i, lo : hi + 1] /= t[:, None]
        bGX[:, i, lo : hi + 1] /= t[:, None]
        bGY[:, i, lo : hi + 1] /= t[:, None]
        log_scale[:, i] = log_scale[:, i + 1] + np.log(t)

    return {"bM": bM, "bGX": bGX, "bGY": bGY, "log_scale": log_scale}


def posteriors(pstar, pwms, fwd, bwd):
    pstar = np.asarray(pstar, dtype=np.float64)
    dead = ~np.isfinite(fwd["loglik"])
    safe_loglik = np.where(dead, 0.0, fwd["loglik"])
    g = fwd["log_scale"] + bwd["log_scale"] - safe_loglik[:, None]
    factor = np.exp(np.minimum(g, 700.0))

    postM_full = fwd["fM"] * bwd["bM"] * factor[:, :, None]
    postGY_full = fwd["fGY"] * bwd["bGY"] * factor[:, :, None]
    if dead.any():
        postM_full[dead] = 0.0
        postGY_full[dead] = 0.0

    postM = postM_full[:, 1:, 1:]
    gap_mass = postGY_full[:, :, 1:].sum(axis=1)
    base_mass = np.einsum(
        "bij,bik->bjk", postM, np.asarray(pwms, dtype=np.float64), optimize=True
    )
    occupancy = postM.sum(axis=1) + gap_mass
    return {
        "base_mass": base_mass,
        "gap_mass": gap_mass,
        "occupancy": occupancy,
        "match_posterior": postM,
    }


def band_edge(match_posterior, band):
    B, N, M = match_posterior.shape
    edge = np.zeros(B)
    for i in range(1, N + 1):
        lo_edge, hi_edge = band.interior_edges(i)
        if lo_edge >= 1:
            edge += match_posterior[:, i - 1, lo_edge - 1]
        if hi_edge >= 1 and hi_edge != lo_edge:
            edge += match_posterior[:, i - 1, hi_edge - 1]
    return edge / float(N)


def backward_loglik(bwd, mode):
    """Total log-likelihood recomputed from the backward matrices.

    In semiglobal mode every path starts in ``M`` at some ``(0, j)`` with unit
    weight, so ``L = sum_j b_M(0, j)``; in global mode paths start at
    ``(0, 0)`` in ``M`` — with the paper's zero-border initialisation simply
    ``b_M(0, 0)``.  A consistency oracle against the forward likelihood.
    """
    with np.errstate(divide="ignore"):
        if mode == "semiglobal":
            total = bwd.bM[:, 0, :].sum(axis=1)
        else:
            total = bwd.bM[:, 0, 0]
        return np.log(np.maximum(total, 0.0)) + bwd.log_scale[:, 0]
