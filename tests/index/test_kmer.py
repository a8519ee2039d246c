"""Tests for 2-bit k-mer packing."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.genome.alphabet import encode
from repro.index.kmer import MAX_K, rolling_kmers


def pack_kmer(codes):
    """Scalar oracle: an ACGT k-mer read as a base-4 number, first base most
    significant."""
    return int("".join(str(int(c)) for c in codes), 4)


def packed(seq):
    """The production packing of one whole k-mer."""
    values, valid = rolling_kmers(encode(seq), len(seq))
    assert valid.all()
    return int(values[0])


class TestPackUnpack:
    def test_known_values(self):
        assert packed("A") == 0
        assert packed("T") == 3
        assert packed("AC") == 1
        assert packed("CA") == 4
        assert packed("TTTT") == 255
        assert packed("T" * MAX_K) == 4**MAX_K - 1

    def test_k_limits(self):
        with pytest.raises(IndexError_):
            rolling_kmers(encode("A" * (MAX_K + 1)), MAX_K + 1)
        with pytest.raises(IndexError_):
            rolling_kmers(encode("A"), 0)


class TestRollingKmers:
    def test_matches_pack_kmer(self):
        codes = encode("ACGTACGT")
        packed, valid = rolling_kmers(codes, 3)
        assert packed.size == 6
        assert valid.all()
        for i in range(6):
            assert packed[i] == pack_kmer(codes[i : i + 3])

    def test_n_windows_masked(self):
        codes = encode("ACNGT")
        packed, valid = rolling_kmers(codes, 2)
        assert valid.tolist() == [True, False, False, True]

    def test_short_sequence_empty(self):
        packed, valid = rolling_kmers(encode("AC"), 5)
        assert packed.size == 0 and valid.size == 0

    @given(st.text(alphabet="ACGTN", min_size=1, max_size=60),
           st.integers(min_value=1, max_value=8))
    def test_rolling_property(self, seq, k):
        codes = encode(seq)
        packed, valid = rolling_kmers(codes, k)
        expected_count = max(0, len(seq) - k + 1)
        assert packed.size == expected_count
        for i in range(expected_count):
            window = codes[i : i + k]
            if (window > 3).any():
                assert not valid[i]
            else:
                assert valid[i]
                assert packed[i] == pack_kmer(window)

