"""Tests for the naive pileup baseline."""

import pytest

from repro.baselines.maq import MIN_DEPTH
from repro.baselines.pileup import MIN_FRACTION, PileupCaller
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
        snps = PileupCaller(workload.reference, seed=0).run(workload.reads)
        assert snps
        for snp in snps:
            assert snp.votes >= MIN_FRACTION * snp.depth
            assert snp.depth >= MIN_DEPTH

    def test_votes_reported(self, workload):
        for snp in PileupCaller(workload.reference, seed=0).run(workload.reads):
            assert 0 < snp.votes <= snp.depth
