"""The SNP caller: accumulated z-vectors -> base calls -> SNP records.

This is step 3 of the GNUMAP-SNP pipeline.  Given the ``(P, 5)`` accumulated
evidence matrix for a genome (or genome segment) and the reference codes, the
caller:

1. computes the LRT statistic per position (monoploid or diploid),
2. applies the configured cutoff — the paper's Bonferroni ``alpha/5``
   chi-square quantile, or BH FDR control over all tested positions,
3. calls the base/genotype at significant positions, and
4. reports positions whose call differs from the reference as substitution
   SNPs (a gap winner is never reported: the paper's tables count
   substitutions).

Positions below :data:`MIN_DEPTH` are never called (there is not enough
evidence for the asymptotic test to mean anything; the paper's 5-20-read
regime is well above it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.calling.lrt import (
    lrt_statistic_diploid,
    lrt_statistic_monoploid,
    top_channels,
)
from repro.calling.pvalues import (
    benjamini_hochberg,
    chi2_pvalue,
    significance_threshold,
)
from repro.calling.records import BaseCall, SNPCall
from repro.errors import CallingError
from repro.genome.alphabet import GAP, N
from repro.observability import current as metrics

#: Minimum accumulated evidence ``n`` to attempt a call.
MIN_DEPTH = 3.0
#: A heterozygous genotype additionally requires the second allele to hold at
#: least this fraction of the position's evidence; the fixed chi-square
#: margin alone lets clustered sequencing errors (whose mass grows with
#: depth) masquerade as hets at high coverage.  True hets sit near 0.5.
MIN_HET_FRACTION = 0.15


@dataclass
class CallerConfig:
    """SNP-caller knobs.

    Attributes
    ----------
    ploidy:
        1 (monoploid LRT) or 2 (diploid LRT with het alternative).
    alpha:
        SNP-wise false-positive rate for the Bonferroni cutoff.  The
        default 0.01 trades a little stringency for sensitivity at 5-12x
        coverage; false positives stay rare regardless because a
        "significant" position is only a SNP when its winning base also
        *differs from the reference* — background positions are
        ref-dominant and veto themselves.
    method:
        ``"bonferroni"`` (the paper's default cutoff) or ``"fdr"``
        (Benjamini–Hochberg at level ``fdr``).
    fdr:
        FDR level when ``method == "fdr"``.
    """

    ploidy: int = 1
    alpha: float = 0.01
    method: str = "bonferroni"
    fdr: float = 0.05

    def __post_init__(self) -> None:
        if self.ploidy not in (1, 2):
            raise CallingError(f"ploidy must be 1 or 2, got {self.ploidy}")
        if not 0.0 < self.alpha < 1.0:
            raise CallingError(f"alpha must be in (0, 1), got {self.alpha}")
        if self.method not in ("bonferroni", "fdr"):
            raise CallingError(f"unknown method {self.method!r}")
        if not 0.0 < self.fdr < 1.0:
            raise CallingError(f"fdr must be in (0, 1), got {self.fdr}")


class SNPCaller:
    """Applies the LRT machinery to an accumulated evidence matrix."""

    def __init__(self, config: CallerConfig | None = None) -> None:
        self.config = config or CallerConfig()

    def _lrt_columns(
        self, z: np.ndarray, positions: np.ndarray | None
    ) -> tuple[np.ndarray, ...]:
        """The LRT outcome of every position with depth >= :data:`MIN_DEPTH`: one
        array per :class:`BaseCall` field, in field order."""
        z = np.asarray(z, dtype=np.float64)
        if z.ndim != 2 or z.shape[1] != 5:
            raise CallingError(f"z must be (P, 5), got {z.shape}")
        P = z.shape[0]
        if positions is None:
            positions = np.arange(P, dtype=np.int64)
        else:
            positions = np.asarray(positions, dtype=np.int64)
            if positions.shape != (P,):
                raise CallingError("positions must match z rows")

        cfg = self.config
        # sum(axis=1), channel by channel in its order: a reduction over
        # five-element rows pays per row, and P is the genome.
        depth = z[:, 0] + z[:, 1] + z[:, 2] + z[:, 3] + z[:, 4]
        eligible = depth >= MIN_DEPTH
        reg = metrics()
        reg.inc("caller.positions_seen", P)
        reg.inc("caller.positions_tested", int(eligible.sum()))
        ze = z[eligible]
        depth_e = depth[eligible]

        if cfg.ploidy == 1:
            stat = lrt_statistic_monoploid(ze)
            het = np.zeros(stat.size, dtype=bool)
        else:
            stat, het = lrt_statistic_diploid(ze)
            second_mass = np.sort(ze, axis=1)[:, -2]
            het &= second_mass >= MIN_HET_FRACTION * depth_e
        pvals = chi2_pvalue(stat)
        if cfg.method == "bonferroni":
            signif = stat > significance_threshold(cfg.alpha)
        else:
            signif = benjamini_hochberg(pvals, cfg.fdr)
        top, second = top_channels(ze)
        return positions[eligible], depth_e, top, second, stat, pvals, signif, het & signif

    @staticmethod
    def _records(columns: "tuple[np.ndarray, ...]") -> list[BaseCall]:
        return [BaseCall(*row) for row in zip(*(c.tolist() for c in columns))]

    def base_calls(
        self, z: np.ndarray, positions: np.ndarray | None = None
    ) -> list[BaseCall]:
        """LRT outcome for every position with depth >= :data:`MIN_DEPTH`.

        Parameters
        ----------
        z:
            ``(P, 5)`` accumulated evidence.
        positions:
            Genome positions of the rows (default ``0..P-1``) — segments of a
            distributed genome pass their global coordinates here.
        """
        return self._records(self._lrt_columns(z, positions))

    def snps(
        self,
        z: np.ndarray,
        reference_codes: np.ndarray,
        positions: np.ndarray | None = None,
    ) -> list[SNPCall]:
        """Significant calls that differ from the reference.

        ``reference_codes`` is indexed by genome position (the full genome
        array, also when ``z`` covers a segment via ``positions``).
        Reference N positions are never reported (no truth to differ from).
        Records are built for the reported positions only.
        """
        reference_codes = np.asarray(reference_codes)
        columns = self._lrt_columns(z, positions)
        pos, _, top, second, _, _, signif, het = columns
        idx = np.flatnonzero(signif)
        beyond = pos[idx] >= reference_codes.size
        if beyond.any():
            raise CallingError(
                f"call at {int(pos[idx][beyond][0])} beyond reference of "
                f"{reference_codes.size}"
            )
        ref = reference_codes[pos[idx]]
        top, second, het = top[idx], second[idx], het[idx]
        # Not homozygous-reference (a het genotype never is), and no gap
        # among the called alleles.
        differs = (ref != N) & (het | (top != ref))
        differs &= ~((top == GAP) | (het & (second == GAP)))
        idx, ref = idx[differs], ref[differs]
        calls = self._records(tuple(c[idx] for c in columns))
        out = [
            SNPCall(pos=call.pos, ref_base=r, call=call)
            for call, r in zip(calls, ref.tolist())
        ]
        metrics().inc("caller.snps", len(out))
        return out
