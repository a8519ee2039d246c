"""Tests for the nucleotide alphabet and complement machinery."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SequenceError
from repro.genome.alphabet import (
    A,
    C,
    CODE_TO_CHAR,
    G,
    N,
    T,
    decode,
    encode,
    is_valid_codes,
    reverse_complement,
    reverse_complement_string,
)
from tests.genome.tstv import is_transition, is_transversion

dna = st.text(alphabet="ACGTN", min_size=0, max_size=200)
dna_nonempty = st.text(alphabet="ACGTN", min_size=1, max_size=200)


class TestEncodeDecode:
    def test_known_codes(self):
        assert encode("ACGTN").tolist() == [0, 1, 2, 3, 4]

    def test_lower_case_accepted(self):
        assert (encode("acgtn") == encode("ACGTN")).all()

    def test_invalid_char_rejected_with_position(self):
        with pytest.raises(SequenceError, match="position 2"):
            encode("ACXGT")

    def test_non_ascii_char_rejected_with_position(self):
        # Not a UnicodeEncodeError; the position counts characters.
        with pytest.raises(SequenceError, match="'É' at position 2"):
            encode("ACÉTÉ")

    def test_decode_out_of_range_rejected(self):
        with pytest.raises(SequenceError):
            decode(np.array([0, 9], dtype=np.uint8))

    @given(dna)
    def test_round_trip(self, seq):
        assert decode(encode(seq)) == seq

    def test_empty(self):
        assert encode("").size == 0
        assert decode(np.array([], dtype=np.uint8)) == ""


class TestReverseComplement:
    def test_known_value(self):
        assert reverse_complement_string("AACGT") == "ACGTT"

    def test_n_maps_to_n(self):
        assert reverse_complement_string("ANT") == "ANT"

    @given(dna_nonempty)
    def test_involution(self, seq):
        codes = encode(seq)
        assert (reverse_complement(reverse_complement(codes)) == codes).all()

    def test_invalid_codes_rejected(self):
        with pytest.raises(SequenceError):
            reverse_complement(np.array([7], dtype=np.uint8))


class TestValidity:
    def test_valid_with_n(self):
        assert is_valid_codes(np.array([0, 4]))

    def test_empty_is_valid(self):
        assert is_valid_codes(np.array([], dtype=np.uint8))


class TestTransitions:
    def test_transitions(self):
        assert is_transition(A, G) and is_transition(G, A)
        assert is_transition(C, T) and is_transition(T, C)

    def test_transversions(self):
        for a, b in [(A, C), (A, T), (G, C), (G, T)]:
            assert is_transversion(a, b)
            assert not is_transition(a, b)

    def test_self_is_neither(self):
        for b in (A, C, G, T):
            assert not is_transition(b, b)
            assert not is_transversion(b, b)

    def test_code_char_table(self):
        assert CODE_TO_CHAR == "ACGTN"
        assert CODE_TO_CHAR[N] == "N"
