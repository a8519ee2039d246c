"""Tests for PHMM parameterisation."""

import numpy as np
import pytest

from repro.errors import ModelError
from repro.phmm.model import PHMMParams, default_emission


class TestDefaultEmission:
    def test_columns_are_distributions(self):
        table = default_emission(0.97)
        assert table.shape == (4, 5)
        assert np.allclose(table[:, :4].sum(axis=0), 1.0)

    def test_diagonal_dominates(self):
        table = default_emission(0.9)
        for k in range(4):
            assert table[k, k] == pytest.approx(0.9)

    def test_n_column_uniform(self):
        assert (default_emission()[:, 4] == 0.25).all()

    def test_bad_match_rejected(self):
        with pytest.raises(ModelError):
            default_emission(0.2)
        with pytest.raises(ModelError):
            default_emission(1.0)


class TestPHMMParams:
    def test_defaults_are_stochastic(self):
        # Rows (M, G_X, G_Y) of the transition matrix; G_X <-> G_Y is barred.
        p = PHMMParams()
        assert p.T_MM + 2 * p.T_MG == pytest.approx(1.0)
        assert p.T_GM + p.T_GG == pytest.approx(1.0)

    def test_transition_accessors(self):
        p = PHMMParams(gap_open=0.05, gap_extend=0.4)
        assert p.T_MM == pytest.approx(0.9)
        assert p.T_MG == pytest.approx(0.05)
        assert p.T_GG == pytest.approx(0.4)
        assert p.T_GM == pytest.approx(0.6)

    def test_validation(self):
        with pytest.raises(ModelError):
            PHMMParams(gap_open=0.0)
        with pytest.raises(ModelError):
            PHMMParams(gap_open=0.6)
        with pytest.raises(ModelError):
            PHMMParams(gap_extend=1.0)
        with pytest.raises(ModelError):
            PHMMParams(q=0.0)

    def test_bad_emission_shape(self):
        with pytest.raises(ModelError):
            PHMMParams(emission=np.ones((4, 4)))

    def test_non_normalized_emission_rejected(self):
        table = default_emission()
        table[0, 0] = 0.5
        with pytest.raises(ModelError):
            PHMMParams(emission=table)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            PHMMParams().gap_open = 0.1
