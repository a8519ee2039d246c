"""Tests for the analytic footprint model."""

import pytest

from repro.errors import AccumulatorError
from repro.index.hashindex import DIRECT_TABLE_BYTES
from repro.memory.base import make_accumulator
from repro.memory.footprint import (
    CHRX_LENGTH,
    HUMAN_LENGTH,
    OPTIMIZATIONS,
    FootprintModel,
)


class TestProjection:
    def test_norm_chrx_matches_paper(self):
        model = FootprintModel()
        assert model.total_gb("NORM", CHRX_LENGTH) == pytest.approx(4.76, abs=0.05)

    def test_ordering(self):
        model = FootprintModel()
        for length in (CHRX_LENGTH, HUMAN_LENGTH):
            gbs = [model.total_gb(o, length) for o in OPTIMIZATIONS]
            assert gbs[0] > gbs[1] > gbs[2]

    def test_linear_in_genome_length(self):
        """Linear past the direct-address table's fixed bytes."""
        model = FootprintModel()
        fixed = DIRECT_TABLE_BYTES
        assert fixed == 4 * (4**10 + 1)
        assert model.total_bytes("NORM", 2 * CHRX_LENGTH) - fixed == pytest.approx(
            2 * (model.total_bytes("NORM", CHRX_LENGTH) - fixed)
        )

    def test_case_insensitive(self):
        model = FootprintModel()
        assert model.bytes_per_base("chardisc") == model.bytes_per_base("CHARDISC")

    def test_validation(self):
        model = FootprintModel()
        with pytest.raises(AccumulatorError):
            model.bytes_per_base("BOGUS")
        with pytest.raises(AccumulatorError):
            model.total_bytes("NORM", 0)


class TestMeasure:
    def test_measure_reports_components(self):
        acc = make_accumulator("CHARDISC", 1000)
        out = FootprintModel.measure(acc, genome_length=1000)
        assert out["accumulator_bytes"] == acc.nbytes()
        assert out["bytes_per_base"] == pytest.approx(acc.nbytes() / 1000)

    def test_measured_matches_model_accumulator_term(self):
        from repro.memory.footprint import ACCUMULATOR_BYTES

        for opt in OPTIMIZATIONS:
            acc = make_accumulator(opt, 10_000)
            assert acc.nbytes() / 10_000 == pytest.approx(ACCUMULATOR_BYTES[opt])
