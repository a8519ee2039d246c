"""Tests for the naive pileup baseline."""

import pytest

from repro.baselines.pileup import PileupCaller
from repro.errors import PipelineError
from repro.evaluation.metrics import compare_to_truth
from repro.experiments.workload import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=88)


class TestPileupCaller:
    def test_finds_strong_snps(self, workload):
        caller = PileupCaller(workload.reference, seed=0)
        snps = caller.run(workload.reads)
        counts = compare_to_truth(snps, workload.catalog)
        assert counts.tp > 0
        assert counts.precision >= 0.7

    def test_majority_fraction_enforced(self, workload):
        strict = PileupCaller(workload.reference, min_fraction=0.95, seed=0)
        loose = PileupCaller(workload.reference, min_fraction=0.6, seed=0)
        s = {x.pos for x in strict.run(workload.reads)}
        l = {x.pos for x in loose.run(workload.reads)}
        assert s <= l

    def test_validation(self, workload):
        with pytest.raises(PipelineError):
            PileupCaller(workload.reference, min_depth=0)
        with pytest.raises(PipelineError):
            PileupCaller(workload.reference, min_fraction=0.4)

    def test_votes_reported(self, workload):
        for snp in PileupCaller(workload.reference, seed=0).run(workload.reads):
            assert 0 < snp.votes <= snp.depth
