"""Tests for the single-best-alignment (Viterbi) ablation mode."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.evaluation.metrics import compare_to_truth
from repro.experiments.workload import build_workload
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp, _one_hot_best


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=606)


@pytest.fixture(scope="module")
def viterbi_result(workload):
    """One Viterbi run of the whole workload, shared by the tests that read
    its calls."""
    config = PipelineConfig(posterior_mode="viterbi")
    return GnumapSnp(workload.reference, config).run(workload.reads)


class TestOneHotBest:
    def test_per_group_single_winner(self):
        logliks = np.array([-3.0, -1.0, -2.0, -9.0, -8.0])
        groups = np.array([0, 0, 0, 1, 1])
        w = _one_hot_best(logliks, groups)
        assert w.tolist() == [0, 1, 0, 0, 1]

    def test_all_impossible_group_zeroed(self):
        w = _one_hot_best(np.array([-np.inf, -np.inf]), np.array([0, 0]))
        assert w.tolist() == [0, 0]

    def test_empty(self):
        assert _one_hot_best(np.array([]), np.array([])).size == 0


class TestViterbiMode:
    def test_runs_and_calls_snps(self, workload, viterbi_result):
        counts = compare_to_truth(viterbi_result.snps, workload.catalog)
        assert counts.tp > 0
        assert counts.precision >= 0.7

    def test_evidence_is_integral_per_position(self, workload):
        # single-path evidence: each covered position gets ~1 unit per read
        config = PipelineConfig(posterior_mode="viterbi")
        pipe = GnumapSnp(workload.reference, config)
        acc = pipe.map_reads(workload.reads[:100])
        depth = acc.total_depth()
        assert depth.max() > 0
        assert depth.sum() == pytest.approx(
            sum(len(r) for r in workload.reads[:100]), rel=0.2
        )

    def test_both_modes_competitive_on_clean_data(self, workload, viterbi_result):
        """On clean, unambiguous data the two philosophies are both strong —
        Viterbi can even edge ahead because one-hot location weights keep
        full depth at one site while the marginal mode splits evidence over
        repeat copies (costing LRT power at low coverage).  The marginal
        mode's advantage is *robustness* in ambiguity, demonstrated by
        tests/test_integration.py::TestRepeatRegionSnp."""
        marginal = GnumapSnp(workload.reference, PipelineConfig()).run(workload.reads)
        cm = compare_to_truth(marginal.snps, workload.catalog)
        cv = compare_to_truth(viterbi_result.snps, workload.catalog)
        assert cm.f1 >= 0.7
        assert cv.f1 >= 0.7

    def test_bad_mode_rejected(self):
        with pytest.raises(ConfigError):
            PipelineConfig(posterior_mode="map")
