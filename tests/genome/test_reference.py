"""Tests for the Reference container and its window/segment arithmetic."""

import numpy as np
import pytest

from repro.errors import SequenceError
from repro.genome.reference import Reference, Segment


class TestConstruction:
    def test_from_string(self):
        ref = Reference.from_string("ACGTN", name="x")
        assert len(ref) == 5
        assert ref.sequence == "ACGTN"
        assert ref.name == "x"

    def test_immutability(self):
        ref = Reference.from_string("ACGT")
        with pytest.raises(ValueError):
            ref.codes[0] = 1

    def test_copies_input(self):
        arr = np.array([0, 1, 2], dtype=np.uint8)
        ref = Reference(arr)
        arr[0] = 3
        assert ref.codes[0] == 0

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            Reference(np.array([], dtype=np.uint8))

    def test_invalid_codes_rejected(self):
        with pytest.raises(SequenceError):
            Reference(np.array([9], dtype=np.uint8))

    def test_2d_rejected(self):
        with pytest.raises(SequenceError):
            Reference(np.zeros((2, 2), dtype=np.uint8))


class TestWindow:
    def setup_method(self):
        self.ref = Reference.from_string("ACGTACGTAC")

    def test_interior(self):
        start, codes = self.ref.window(2, 4)
        assert start == 2
        assert codes.tolist() == [2, 3, 0, 1]

    def test_clamped_left(self):
        start, codes = self.ref.window(-3, 5)
        assert start == 0
        assert codes.size == 2

    def test_clamped_right(self):
        start, codes = self.ref.window(8, 5)
        assert start == 8
        assert codes.size == 2

    def test_fully_outside_rejected(self):
        with pytest.raises(SequenceError):
            self.ref.window(100, 5)

    def test_zero_length_rejected(self):
        with pytest.raises(SequenceError):
            self.ref.window(0, 0)


class TestSplit:
    def test_covers_exactly(self):
        ref = Reference.from_string("A" * 17)
        segs = ref.split(4)
        assert segs[0].start == 0
        assert segs[-1].stop == 17
        for a, b in zip(segs, segs[1:]):
            assert a.stop == b.start
        lengths = [len(s) for s in segs]
        assert max(lengths) - min(lengths) <= 1

    def test_single_part(self):
        ref = Reference.from_string("ACGT")
        assert ref.split(1) == [Segment(0, 4)]

    def test_too_many_parts_rejected(self):
        with pytest.raises(SequenceError):
            Reference.from_string("ACG").split(4)

    def test_nonpositive_rejected(self):
        with pytest.raises(SequenceError):
            Reference.from_string("ACG").split(0)


class TestSegment:
    def test_contains(self):
        seg = Segment(2, 5)
        assert seg.contains(2) and seg.contains(4)
        assert not seg.contains(5) and not seg.contains(1)
        assert len(seg) == 3

    def test_invalid_rejected(self):
        with pytest.raises(SequenceError):
            Segment(5, 2)
        with pytest.raises(SequenceError):
            Segment(-1, 2)


class TestGcContent:
    def test_known(self):
        assert Reference.from_string("GGCC").gc_content() == 1.0
        assert Reference.from_string("AATT").gc_content() == 0.0
        assert Reference.from_string("ACGT").gc_content() == 0.5

    def test_n_excluded(self):
        assert Reference.from_string("GCNN").gc_content() == 1.0

    def test_all_n(self):
        assert Reference.from_string("NNN").gc_content() == 0.0
