"""Tests for position-weight matrices."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SequenceError
from repro.genome.alphabet import encode
from repro.genome.fastq import ERROR_PROBABILITY, MAX_QUALITY, Read
from repro.phmm.pwm import (
    flat_pwm,
    pwm_from_codes,
    pwm_from_read,
    reverse_complement_pwm,
)


def validate_pwm(pwm):
    """Every row of an ``(N, 4)`` PWM is a probability distribution."""
    assert pwm.ndim == 2 and pwm.shape[1] == 4
    assert (pwm >= 0).all()
    assert np.allclose(pwm.sum(axis=1), 1.0, atol=1e-6)


class TestPwmFromCodes:
    def test_known_values(self):
        pwm = pwm_from_codes(encode("AC"), np.array([0.03, 0.3]))
        assert pwm[0].tolist() == pytest.approx([0.97, 0.01, 0.01, 0.01])
        assert pwm[1, 1] == pytest.approx(0.7)
        assert pwm[1, 0] == pytest.approx(0.1)

    def test_rows_normalise(self):
        rng = np.random.default_rng(0)
        pwm = pwm_from_codes(
            rng.integers(0, 4, 50).astype(np.uint8), rng.uniform(0, 1, 50)
        )
        validate_pwm(pwm)

    def test_n_rejected(self):
        with pytest.raises(SequenceError):
            pwm_from_codes(encode("AN"), np.array([0.1, 0.1]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(SequenceError):
            pwm_from_codes(encode("ACG"), np.array([0.1]))

    def test_empty_rejected(self):
        with pytest.raises(SequenceError):
            pwm_from_codes(encode(""), np.array([]))

    def test_bad_probability_rejected(self):
        with pytest.raises(SequenceError):
            pwm_from_codes(encode("A"), np.array([1.5]))

    @pytest.mark.parametrize("bad", [np.nan, -0.1, np.inf, 1.0000001])
    def test_probability_outside_unit_interval_rejected(self, bad):
        """NaN compares False both ways: no NaN PWM may reach the kernels."""
        with pytest.raises(SequenceError, match=r"\[0, 1\]"):
            pwm_from_codes(encode("ACG"), np.array([0.1, bad, 0.2]))
        with pytest.raises(SequenceError, match=r"\[0, 1\]"):
            pwm_from_codes(np.zeros((2, 3), dtype=np.uint8), np.array([[0.1] * 3, [0.1, 0.2, bad]]))

    def test_rank_zero_and_empty_blocks_rejected(self):
        with pytest.raises(SequenceError):
            pwm_from_codes(np.uint8(1), np.float64(0.1))
        with pytest.raises(SequenceError):
            pwm_from_codes(np.zeros((0, 5), dtype=np.uint8), np.zeros((0, 5)))
        with pytest.raises(SequenceError):
            pwm_from_codes(np.zeros((3, 0), dtype=np.uint8), np.zeros((3, 0)))
        with pytest.raises(SequenceError):
            pwm_from_codes(np.zeros((2, 3), dtype=np.uint8), np.zeros((3, 2)))

    def test_from_read(self):
        read = Read("r", encode("ACGT"), np.array([10, 20, 30, 40], dtype=np.uint8))
        pwm = pwm_from_read(read)
        assert pwm[0, 0] == pytest.approx(0.9)
        assert pwm[3, 3] == pytest.approx(0.9999)


class TestFlatPwm:
    def test_one_hot(self):
        pwm = flat_pwm(encode("ACGT"))
        assert (pwm == np.eye(4)).all()

    def test_n_rejected(self):
        with pytest.raises(SequenceError):
            flat_pwm(encode("N"))

    def test_empty_rejected(self):
        with pytest.raises(SequenceError, match="empty"):
            flat_pwm(encode(""))

    def test_block_is_one_hot_per_read(self):
        codes = np.array([[0, 1, 2, 3], [3, 3, 0, 1]], dtype=np.uint8)
        block = flat_pwm(codes)
        assert block.shape == (2, 4, 4)
        for row, read_codes in zip(block, codes):
            np.testing.assert_array_equal(row, np.eye(4)[read_codes])


@st.composite
def read_block(draw):
    """Equal-length reads with qualities over the whole accepted range."""
    n_reads = draw(st.integers(min_value=1, max_value=9))
    n = draw(st.integers(min_value=1, max_value=70))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return [
        Read(
            f"r{i}",
            rng.integers(0, 4, n).astype(np.uint8),
            rng.integers(0, MAX_QUALITY + 1, n).astype(np.uint8),
        )
        for i in range(n_reads)
    ]


class TestBlockPwm:
    """The any-rank build against its per-read oracle, bit for bit."""

    @given(read_block())
    def test_block_rows_equal_per_read_pwms(self, reads):
        block = pwm_from_codes(
            np.stack([r.codes for r in reads]),
            ERROR_PROBABILITY[np.stack([r.quals for r in reads])],
        )
        assert block.shape == (len(reads), len(reads[0]), 4)
        flipped = block[:, ::-1, ::-1]
        for row, flip, read in zip(block, flipped, reads):
            want = pwm_from_read(read)
            np.testing.assert_array_equal(row, want)
            np.testing.assert_array_equal(flip, reverse_complement_pwm(want))

    def test_error_table_is_the_per_read_formula(self):
        """One table entry per Phred score, equal to ``10**(-Q/10)`` computed
        on arrays of any length (the conversion reads used before the table)."""
        for n in (1, 2, 3, 7, 8, 9, 62, 100):
            for q in range(MAX_QUALITY + 1):
                quals = np.full(n, q, dtype=np.uint8)
                np.testing.assert_array_equal(
                    ERROR_PROBABILITY[quals],
                    np.power(10.0, -quals.astype(np.float64) / 10.0),
                )
        ramp = np.arange(MAX_QUALITY + 1, dtype=np.uint8)
        read = Read("ramp", np.zeros(ramp.size, dtype=np.uint8), ramp)
        np.testing.assert_array_equal(
            read.error_probabilities(), np.power(10.0, -ramp.astype(np.float64) / 10.0)
        )


class TestReverseComplementPwm:
    def test_involution(self):
        rng = np.random.default_rng(1)
        pwm = pwm_from_codes(
            rng.integers(0, 4, 30).astype(np.uint8), rng.uniform(0, 0.5, 30)
        )
        assert np.allclose(reverse_complement_pwm(reverse_complement_pwm(pwm)), pwm)

    def test_matches_revcomp_read(self):
        # PWM of revcomp(read) must equal revcomp of PWM(read)
        from repro.genome.alphabet import reverse_complement

        codes = encode("AACGT")
        errs = np.array([0.01, 0.02, 0.05, 0.1, 0.2])
        direct = pwm_from_codes(reverse_complement(codes), errs[::-1])
        via_pwm = reverse_complement_pwm(pwm_from_codes(codes, errs))
        assert np.allclose(direct, via_pwm)

    def test_shape_rejected(self):
        with pytest.raises(SequenceError):
            reverse_complement_pwm(np.ones((3, 3)))


class TestValidatePwm:
    @given(st.integers(min_value=1, max_value=60), st.integers(min_value=0, max_value=2**32 - 1))
    def test_generated_pwms_always_valid(self, n, seed):
        rng = np.random.default_rng(seed)
        pwm = pwm_from_codes(
            rng.integers(0, 4, n).astype(np.uint8), rng.uniform(0, 1, n)
        )
        validate_pwm(pwm)
