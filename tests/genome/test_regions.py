"""Tests for BED-style region sets."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ReproError
from repro.genome.regions import Region, RegionSet


class TestRegion:
    def test_validation(self):
        with pytest.raises(ReproError):
            Region(5, 5)
        with pytest.raises(ReproError):
            Region(-1, 3)

    def test_len(self):
        assert len(Region(2, 7)) == 5


class TestRegionSet:
    def test_merging(self):
        rs = RegionSet([(10, 20), (15, 30), (40, 50)])
        assert len(rs) == 2
        assert [(r.start, r.stop) for r in rs] == [(10, 30), (40, 50)]
        assert rs.total_bases() == 30

    def test_adjacent_merged(self):
        rs = RegionSet([(0, 10), (10, 20)])
        assert len(rs) == 1

    def test_membership(self):
        rs = RegionSet([(10, 20)])
        assert 10 in rs and 19 in rs
        assert 9 not in rs and 20 not in rs

    def test_contains_many_matches_scalar(self):
        rs = RegionSet([(5, 9), (20, 25)])
        positions = np.arange(0, 30)
        vec = rs.contains_many(positions)
        scalar = np.array([int(p) in rs for p in positions])
        assert (vec == scalar).all()

    def test_empty_set_contains_nothing(self):
        # A header-only BED reads as an empty set; membership must say no,
        # not index a stop that does not exist.
        rs = RegionSet([])
        assert 0 not in rs
        assert rs.contains_many(np.array([0, 1])).tolist() == [False, False]
        assert rs.contains_many(np.array([], dtype=np.int64)).shape == (0,)

    def test_mask(self):
        rs = RegionSet([(2, 4)])
        assert rs.mask(6).tolist() == [False, False, True, True, False, False]

    def test_complement(self):
        rs = RegionSet([(2, 4), (6, 8)])
        comp = rs.complement(10)
        assert [(r.start, r.stop) for r in comp] == [(0, 2), (4, 6), (8, 10)]
        assert rs.total_bases() + comp.total_bases() == 10

    def test_complement_empty_set(self):
        comp = RegionSet().complement(5)
        assert [(r.start, r.stop) for r in comp] == [(0, 5)]

    def test_bed_round_trip(self):
        rs = RegionSet([(3, 9), (100, 250)])
        buf = io.StringIO()
        rs.write_bed(buf, chrom="chrX")
        back = RegionSet.read_bed(io.StringIO(buf.getvalue()))
        assert [(r.start, r.stop) for r in back] == [(3, 9), (100, 250)]

    def test_bed_skips_headers(self):
        back = RegionSet.read_bed(io.StringIO("track name=x\n# c\nref\t1\t5\n"))
        assert len(back) == 1

    def test_bed_malformed_rejected(self):
        with pytest.raises(ReproError):
            RegionSet.read_bed(io.StringIO("ref\t5\n"))

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=200),
                st.integers(min_value=1, max_value=50),
            ),
            max_size=15,
        )
    )
    def test_merge_invariants(self, raw):
        regions = [(a, a + w) for a, w in raw]
        rs = RegionSet(regions)
        items = list(rs)
        # sorted, disjoint, non-adjacent
        for a, b in zip(items, items[1:]):
            assert a.stop < b.start
        # membership matches the union of the inputs
        for a, w in raw:
            assert a in rs
            assert (a + w - 1) in rs


class TestCallerIntegration:
    def test_regions_filter_calls(self):
        from repro.calling.caller import SNPCaller
        from repro.genome.alphabet import encode

        ref = encode("A" * 10)
        z = np.zeros((10, 5))
        z[2] = [0.1, 15.0, 0.1, 0.1, 0]
        z[7] = [0.1, 15.0, 0.1, 0.1, 0]
        caller = SNPCaller()
        all_calls = caller.snps(z, ref)
        assert {s.pos for s in all_calls} == {2, 7}
        only_left = caller.snps(z, ref, regions=RegionSet([(0, 5)]))
        assert {s.pos for s in only_left} == {2}
