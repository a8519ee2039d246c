"""Slow reference implementations used as numerical oracles in tests.

Nothing here is imported by ``src/``.  Three levels of oracle:

* :func:`forward_naive` / :func:`backward_naive` — the same recursions as the
  vectorised code, written as explicit loops in plain probability space
  (float64 is fine at oracle scale), no scaling, no batching.
* :func:`loglik_bruteforce` — enumerate *every* alignment path of tiny
  problems and add up their probabilities.  This validates the recursions
  themselves, not just the vectorisation.
* :func:`band_edge_mass` — the band audit over a materialised match
  posterior, which the compiled backward deposit sums row by row.

All of them use the kernels' one boundary convention, semiglobal.
"""

import numpy as np

from repro.errors import AlignmentError


def emissions_naive(pwm, window, params):
    """Loop-based ``p*`` for a single pair: ``(N, M)``."""
    pwm = np.asarray(pwm, dtype=np.float64)
    window = np.asarray(window)
    N, M = pwm.shape[0], window.shape[0]
    out = np.zeros((N, M))
    for i in range(N):
        for j in range(M):
            out[i, j] = sum(
                pwm[i, k] * params.emission[k, int(window[j])] for k in range(4)
            )
    return out


def forward_naive(pstar, params):
    """Unscaled forward DP; returns ``(fM, fGX, fGY, likelihood)``."""
    N, M = pstar.shape
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG
    fM = np.zeros((N + 1, M + 1))
    fGX = np.zeros((N + 1, M + 1))
    fGY = np.zeros((N + 1, M + 1))
    fM[0, :] = 1.0
    for i in range(1, N + 1):
        for j in range(0, M + 1):
            if j >= 1:
                fM[i, j] = pstar[i - 1, j - 1] * (
                    TMM * fM[i - 1, j - 1]
                    + TGM * (fGX[i - 1, j - 1] + fGY[i - 1, j - 1])
                )
            fGX[i, j] = q * (TMG * fM[i - 1, j] + TGG * fGX[i - 1, j])
            if j >= 1:
                fGY[i, j] = q * (TMG * fM[i, j - 1] + TGG * fGY[i, j - 1])
    like = float(fM[N, :].sum() + fGX[N, :].sum())
    return fM, fGX, fGY, like


def backward_naive(pstar, params):
    """Unscaled backward DP; returns ``(bM, bGX, bGY)``."""
    N, M = pstar.shape
    q, TMM, TMG, TGM, TGG = params.q, params.T_MM, params.T_MG, params.T_GM, params.T_GG
    bM = np.zeros((N + 1, M + 1))
    bGX = np.zeros((N + 1, M + 1))
    bGY = np.zeros((N + 1, M + 1))
    bM[N, :] = 1.0
    bGX[N, :] = 1.0

    def p(i, j):
        # p*(i+1, j+1) with the paper's zero padding beyond the matrix.
        if i < N and j < M:
            return float(pstar[i, j])
        return 0.0

    for i in range(N - 1, -1, -1):
        if i > 0:
            # Row 0 keeps b_GY = 0: f_GY(0, j) = 0, so G_Y cells before the
            # first read base are unreachable and must not feed b_M(0, j).
            for j in range(M, -1, -1):
                gy_next = bGY[i, j + 1] if j + 1 <= M else 0.0
                bm_next = bM[i + 1, j + 1] if j + 1 <= M else 0.0
                bGY[i, j] = p(i, j) * TGM * bm_next + q * TGG * gy_next
        for j in range(M, -1, -1):
            gy_next = bGY[i, j + 1] if j + 1 <= M else 0.0
            bm_next = bM[i + 1, j + 1] if j + 1 <= M else 0.0
            bM[i, j] = p(i, j) * TMM * bm_next + q * TMG * (bGX[i + 1, j] + gy_next)
            bGX[i, j] = p(i, j) * TGM * bm_next + q * TGG * bGX[i + 1, j]
    return bM, bGX, bGY


def loglik_bruteforce(pstar, params):
    """Sum the probability of every alignment path (tiny inputs only).

    Enumerates state paths recursively; complexity is exponential, so inputs
    are limited to ``N * M <= 49``.
    """
    N, M = pstar.shape
    if N * M > 49:
        raise AlignmentError("bruteforce oracle limited to N*M <= 49")
    q = params.q
    trans = {
        ("M", "M"): params.T_MM,
        ("M", "GX"): params.T_MG,
        ("M", "GY"): params.T_MG,
        ("GX", "M"): params.T_GM,
        ("GX", "GX"): params.T_GG,
        ("GY", "M"): params.T_GM,
        ("GY", "GY"): params.T_GG,
    }

    def emit(state, i, j):
        # Emission of the *arrival* cell: M consumes (x_i, y_j), gaps emit q.
        if state == "M":
            return float(pstar[i - 1, j - 1])
        return q

    total = 0.0

    def walk(state, i, j, weight):
        nonlocal total
        if i == N:
            if state in ("M", "GX"):
                total += weight
            return
        for nxt in ("M", "GX", "GY"):
            t = trans.get((state, nxt))
            if t is None:
                continue
            if i == 0 and nxt == "GY":
                # f_GY(0, j) = 0: the free genome prefix is modelled by the
                # choice of start column j0, not by leading genome gaps.
                continue
            ni, nj = i, j
            if nxt == "M":
                ni, nj = i + 1, j + 1
            elif nxt == "GX":
                ni = i + 1
            else:
                nj = j + 1
            if ni > N or nj > M:
                continue
            walk(nxt, ni, nj, weight * t * emit(nxt, ni, nj))

    # Paths start in M at (1, j) for any j, or open a leading read gap.
    for j0 in range(0, M + 1):
        # Starting cell acts as if preceded by a virtual M with weight 1:
        # first move uses the M-row transitions, exactly like f_M(0,j)=1.
        walk("M", 0, j0, 1.0)
    with np.errstate(divide="ignore"):
        return float(np.log(total)) if total > 0 else float("-inf")


def band_edge_mass(match_posterior, band):
    """Posterior mass pressed against the band's interior edges, per pair.

    ``match_posterior`` is the ``(B, N, M)`` cell-posterior array of a
    ``PosteriorResult`` (row ``i-1``/col ``j-1`` hold cell ``(i, j)``).
    Returns the summed match posterior on band-created edge cells over the
    read length — the fraction of the alignment running along the band
    boundary; matrix-boundary columns never count.
    """
    match_posterior = np.asarray(match_posterior)
    B, N, M = match_posterior.shape
    assert (band.n, band.m) == (N, M)
    edge = np.zeros(B)
    for i in range(1, N + 1):
        for j in band.edge_columns(i):
            edge += match_posterior[:, i - 1, j - 1]
    return edge / float(N)
