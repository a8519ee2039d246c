"""Tests for the ROC threshold-sweep experiment."""

import numpy as np
import pytest

from repro.calling.caller import MIN_DEPTH
from repro.errors import ConfigError
from repro.experiments import roc
from repro.experiments.workload import build_workload
from repro.genome.alphabet import GAP, N
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=505)


class TestScoredPositions:
    def test_gnumap_scores_cover_truth(self, workload):
        scored = roc.gnumap_scored_positions(workload)
        assert scored
        positions = {p for p, _ in scored}
        truth = set(workload.catalog.positions.tolist())
        # most planted SNPs appear among the scored candidates
        assert len(positions & truth) >= 0.5 * len(truth)
        assert all(s >= 0 for _, s in scored)

    def test_truth_scores_above_background(self, workload):
        scored = dict(roc.gnumap_scored_positions(workload))
        truth = set(workload.catalog.positions.tolist())
        t_scores = [s for p, s in scored.items() if p in truth]
        bg_scores = [s for p, s in scored.items() if p not in truth]
        if t_scores and bg_scores:
            assert np.median(t_scores) > np.median(bg_scores)

    def test_default_config_scores_the_non_reference_base_calls(self, workload):
        pipe = GnumapSnp(workload.reference, PipelineConfig())
        acc = pipe.map_reads(workload.reads)
        ref = workload.reference.codes
        expected = [
            (call.pos, call.stat)
            for call in pipe.caller.base_calls(acc.snapshot())
            if ref[call.pos] != N and call.top_channel not in (ref[call.pos], GAP)
        ]
        assert expected
        assert roc.gnumap_scored_positions(workload) == expected

    def test_caller_min_depth_is_honoured(self, workload):
        """Depth eligibility is the caller's ``MIN_DEPTH``: the sweep scores
        only positions the caller would test."""
        scored = roc.gnumap_scored_positions(workload)
        acc = GnumapSnp(workload.reference, PipelineConfig()).map_reads(workload.reads)
        depth = acc.snapshot().sum(axis=1)
        assert scored
        assert all(depth[pos] >= MIN_DEPTH for pos, _ in scored)

    def test_maq_scores(self, workload):
        scored = roc.maq_scored_positions(workload)
        assert all(q >= 0 for _, q in scored)


class TestRun:
    def test_rows_and_format(self, workload):
        points = roc.run(workload=workload, n_points=4)
        series = {p.series for p in points}
        assert len(series) == 2
        text = roc.format(points)
        assert "threshold" in text
        for p in points:
            assert 0 <= p.precision <= 1
            assert 0 <= p.recall <= 1

    def test_recall_monotone_along_curve(self, workload):
        points = roc.run(workload=workload, n_points=5)
        for series in {p.series for p in points}:
            recs = [p.recall for p in points if p.series == series]
            assert all(b >= a for a, b in zip(recs, recs[1:]))

    def test_validation(self, workload):
        with pytest.raises(ConfigError):
            roc.run(workload=workload, n_points=1)
