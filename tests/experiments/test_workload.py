"""Tests for the shared experiment workload builder."""

import pytest

from repro.errors import ConfigError
from repro.experiments.workload import SCALES, build_workload


class TestBuildWorkload:
    def test_deterministic(self):
        a = build_workload(scale="tiny", seed=1)
        b = build_workload(scale="tiny", seed=1)
        assert (a.reference.codes == b.reference.codes).all()
        assert a.catalog.positions.tolist() == b.catalog.positions.tolist()
        assert len(a.reads) == len(b.reads)
        assert (a.reads[0].codes == b.reads[0].codes).all()

    def test_scale_parameters_respected(self):
        length, n_snps, coverage = SCALES["tiny"]
        wl = build_workload(scale="tiny", seed=2)
        assert len(wl.reference) == length
        assert len(wl.catalog) == n_snps
        assert wl.coverage == pytest.approx(coverage, rel=0.05)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ConfigError):
            build_workload(scale="galactic")

    def test_diploid_option(self):
        wl = build_workload(scale="tiny", seed=3, ploidy=2, het_fraction=0.5)
        genotypes = {v.genotype for v in wl.catalog}
        assert genotypes == {"hom", "het"}

    def test_reads_carry_truth_metadata(self):
        wl = build_workload(scale="tiny", seed=4)
        for read in wl.reads[:20]:
            assert read.true_pos is not None
            assert read.true_strand in (-1, 1)
            assert len(read) == 62  # the paper's read length

    def test_snps_inside_margins(self):
        wl = build_workload(scale="tiny", seed=5)
        assert wl.catalog.positions.min() >= 62
        assert wl.catalog.positions.max() < len(wl.reference) - 62
