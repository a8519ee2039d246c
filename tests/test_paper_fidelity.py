"""Paper-fidelity pins: values the paper states explicitly.

Each test quotes the paper (section in the docstring) and asserts our
implementation reproduces the stated number or construction exactly.
"""

import numpy as np
import pytest
from scipy import stats


class TestSectionV:
    def test_default_mer_size_is_10(self):
        """§V: 'create a genomic hash table of k-mers (default k=10)'."""
        from repro.index.hashindex import DEFAULT_K
        from repro.pipeline.config import PipelineConfig

        assert DEFAULT_K == 10
        assert PipelineConfig().k == 10


class TestSectionVI:
    def test_lrt_mle_worked_example(self):
        """§V-C: 'suppose that 14, 1, 3, and 2 of the reads align an A, C,
        G, and T ... z = (14, 1, 3, 2, 0)' with MLEs p(5) = z(5)/n and
        p(4) = (n - z(5))/4n."""
        from tests.calling.negative_multinomial import mle_monoploid

        z = np.array([[14.0, 1.0, 3.0, 2.0, 0.0]])
        p_top, p_rest = mle_monoploid(z)
        assert p_top[0] == pytest.approx(14 / 20)
        assert p_rest[0] == pytest.approx(6 / 80)

    def test_lrt_statistic_matches_lambda_formula(self):
        """§VI step 3: lambda(z) = 0.2^n / (p5^z5 * p4^(n-z5))."""
        from repro.calling.lrt import lrt_statistic_monoploid

        z = np.array([14.0, 1.0, 3.0, 2.0, 0.0])
        n, z5 = 20.0, 14.0
        p5, p4 = z5 / n, (n - z5) / (4 * n)
        lam = 0.2**n / (p5**z5 * p4 ** (n - z5))
        assert lrt_statistic_monoploid(z)[0] == pytest.approx(-2 * np.log(lam))

    def test_cutoff_is_one_minus_alpha_over_5_quantile(self):
        """§VI step 3: 'we compare -2log(lambda(z)) with the (1 - alpha/5)th
        quantile of the chi2_1 distribution'."""
        from repro.calling.pvalues import significance_threshold

        for alpha in (0.05, 0.01, 0.001):
            assert significance_threshold(alpha) == pytest.approx(
                stats.chi2.ppf(1 - alpha / 5, df=1)
            )

    def test_chardisc_worked_examples(self):
        """§VI-B.1: one a -> [255,0,0,0,0]; one a + one t -> [128,0,0,127,0];
        254 a + 1 t -> [254,0,0,1,0]."""
        from repro.memory.chardisc import ByteAccumulator

        acc = ByteAccumulator(1)
        acc.add(np.array([0]), np.array([[1.0, 0, 0, 0, 0]]))
        assert acc.byte_state()[1][0].tolist() == [255, 0, 0, 0, 0]

        acc2 = ByteAccumulator(1)
        acc2.add(np.array([0]), np.array([[1.0, 0, 0, 0, 0]]))
        acc2.add(np.array([0]), np.array([[0, 0, 0, 1.0, 0]]))
        bts = acc2.byte_state()[1][0]
        assert {int(bts[0]), int(bts[3])} == {128, 127}

        acc3 = ByteAccumulator(1)
        acc3.add(np.array([0]), np.array([[254.0, 0, 0, 0, 0]]))
        acc3.add(np.array([0]), np.array([[0, 0, 0, 1.0, 0]]))
        assert acc3.byte_state()[1][0].tolist() == [254, 0, 0, 1, 0]

    def test_backward_recursion_matches_paper_text(self):
        """§VI step 2 backward: b_M(i,j) = p*(i+1,j+1) T_MM b_M(i+1,j+1)
        + q T_MG [b_X(i+1,j) + b_Y(i,j+1)] — transcribed literally and
        compared against the implementation on a random instance."""
        from repro.phmm.forward_backward import backward_batch
        from repro.phmm.model import PHMMParams

        rng = np.random.default_rng(0)
        params = PHMMParams()
        N, M = 4, 5
        pstar = rng.uniform(0.01, 1.0, (N, M))
        bwd = backward_batch(pstar[None], params)
        scale = np.exp(bwd.log_scale[0])[:, None]
        bM, bGX, bGY = (b[0] * scale for b in (bwd.bM, bwd.bGX, bwd.bGY))
        q = params.q

        def p(i, j):  # p*(i+1, j+1), zero-padded
            return pstar[i, j] if i < N and j < M else 0.0

        for i in range(N - 1, -1, -1):
            for j in range(M - 1, 0, -1):
                lhs = bM[i, j]
                rhs = (
                    p(i, j) * params.T_MM * bM[i + 1, j + 1]
                    + q * params.T_MG * (bGX[i + 1, j] + bGY[i, j + 1])
                )
                assert lhs == pytest.approx(rhs, rel=1e-12)
                assert bGX[i, j] == pytest.approx(
                    p(i, j) * params.T_GM * bM[i + 1, j + 1]
                    + q * params.T_GG * bGX[i + 1, j],
                    rel=1e-12,
                )


class TestSectionVII:
    def test_workload_matches_paper_parameters(self):
        """§VII-A: 62-bp reads at ~12x coverage (31M reads / 155Mb chrX)."""
        from repro.experiments.workload import SCALES, build_workload

        wl = build_workload(scale="tiny", seed=0)
        assert len(wl.reads[0]) == 62
        assert SCALES["bench"][2] == 12.0

    def test_norm_chrx_footprint(self):
        """Table II: NORM on the 155 Mbp chrX uses 4.76 GB."""
        from repro.memory.footprint import CHRX_LENGTH, FootprintModel

        assert CHRX_LENGTH == 155_000_000
        assert FootprintModel().total_gb("NORM", CHRX_LENGTH) == pytest.approx(
            4.76, abs=0.05
        )

    def test_gnumap_rank_count(self):
        """Table I note: 'GNUMAP utilized a cluster of 30 machines'."""
        from repro.experiments.table1 import GNUMAP_RANKS

        assert GNUMAP_RANKS == 30
