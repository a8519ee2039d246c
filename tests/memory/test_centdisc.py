"""Tests for CENTDISC centroid discretisation."""

import numpy as np
import pytest

from repro.errors import AccumulatorError
from repro.memory.centdisc import (
    CentroidAccumulator,
    CentroidCodebook,
    default_codebook,
)


class TestCodebook:
    def test_structure(self):
        cb = default_codebook()
        assert cb.centroids.shape == (256, 5)
        # slot 0 is the empty state
        assert (cb.centroids[0] == 0).all()
        assert np.allclose(cb.centroids[1:].sum(axis=1), 1.0)

    def test_contains_pure_corners_and_uniform(self):
        cb = default_codebook()
        for ch in range(5):
            corner = np.zeros(5)
            corner[ch] = 1.0
            assert (np.abs(cb.centroids - corner).sum(axis=1) < 1e-9).any()
        assert (np.abs(cb.centroids - 0.2).sum(axis=1) < 1e-9).any()

    def test_transition_mixtures_over_represented(self):
        # count two-base mixtures: transition pairs (A/G, C/T) should have
        # at least as many codebook entries as any transversion pair
        cb = default_codebook()

        def pair_count(i, j):
            c = cb.centroids
            both = (c[:, i] > 0.05) & (c[:, j] > 0.05)
            others = np.delete(c, [i, j], axis=1).sum(axis=1) < 0.3
            return int((both & others).sum())

        ts = min(pair_count(0, 2), pair_count(1, 3))
        tv = max(pair_count(0, 1), pair_count(0, 3), pair_count(2, 1), pair_count(2, 3))
        assert ts >= tv

    def test_nearest_identity_on_centroids(self):
        cb = default_codebook()
        idx = cb.nearest(cb.centroids[1:])
        assert (idx == np.arange(1, 256)).all()

    def test_nearest_answers_per_row_whatever_shares_the_call(self):
        """A row's centroid is the same alone and among thousands of rows:
        the centroid-pair midpoints sit on exact ties, where the GEMM's
        row-count-dependent low bits would otherwise decide."""
        cb = default_codebook()
        i, j = np.triu_indices(255, 1)
        midpoints = (cb.centroids[1 + i] + cb.centroids[1 + j]) / 2.0
        random = np.random.default_rng(24).dirichlet(np.full(5, 0.3), 100_000)
        for rows in (midpoints, random):
            together = cb.nearest(rows)
            alone = np.array([cb.nearest(rows[r : r + 1])[0] for r in range(len(rows))])
            np.testing.assert_array_equal(together, alone)

    def test_nearest_is_the_nearest(self):
        cb = default_codebook()
        rows = np.random.default_rng(5).dirichlet(np.full(5, 0.5), 2000)
        d = ((rows[:, None, :] - cb.centroids[None, 1:, :]) ** 2).sum(axis=2)
        got = d[np.arange(len(rows)), cb.nearest(rows).astype(int) - 1]
        np.testing.assert_allclose(got, d.min(axis=1), rtol=0, atol=1e-12)
        assert cb.nearest(rows[0]).shape == (1,)

    def test_nearest_shape_validation(self):
        with pytest.raises(AccumulatorError):
            default_codebook().nearest(np.zeros((2, 4)))

    def test_reduce_table_consistency(self):
        cb = default_codebook()
        table = cb.reduce_table()
        assert table.shape == (256, 256)
        # symmetric by construction of the mixture
        assert (table == table.T).all()
        # self-merge is identity (nearest of c is c)
        diag = table[np.arange(256), np.arange(256)]
        assert (diag == np.arange(256)).all()
        # empty state merge keeps the other operand
        assert (table[0, :] == np.arange(256)).all()

    def test_custom_codebook_validation(self):
        with pytest.raises(AccumulatorError):
            CentroidCodebook(np.ones((10, 5)))
        bad = default_codebook().centroids.copy()
        bad[5] = 2.0
        with pytest.raises(AccumulatorError):
            CentroidCodebook(bad)


class TestCentroidAccumulator:
    def test_single_add_near_exact(self):
        acc = CentroidAccumulator(4)
        z = np.array([[0.9, 0.05, 0.05, 0, 0]])
        acc.add(np.array([1]), z)
        snap = acc.snapshot()
        assert snap[1].sum() == pytest.approx(1.0, rel=1e-5)
        assert abs(snap[1, 0] - 0.9) < 0.1

    def test_totals_exact_fractions_lossy(self):
        rng = np.random.default_rng(0)
        length = 100
        acc = CentroidAccumulator(length)
        ref = np.zeros((length, 5))
        for _ in range(20):
            pos = rng.integers(0, length, 30)
            z = rng.dirichlet([6, 1, 1, 1, 0.2], 30)
            acc.add(pos, z)
            np.add.at(ref, pos, z)
        snap = acc.snapshot()
        # totals are carried in the float and must match
        assert np.allclose(snap.sum(axis=1), ref.sum(axis=1), rtol=1e-4, atol=1e-3)
        # fractions are lossy — much lossier than CHARDISC
        rel = np.abs(snap - ref).sum() / ref.sum()
        assert 0.02 < rel < 0.6

    def test_lossier_than_chardisc(self):
        from repro.memory.chardisc import ByteAccumulator

        rng = np.random.default_rng(1)
        length = 150
        cent = CentroidAccumulator(length)
        byte = ByteAccumulator(length)
        ref = np.zeros((length, 5))
        for _ in range(25):
            pos = rng.integers(0, length, 40)
            z = rng.dirichlet([8, 1, 1, 1, 0.1], 40)
            cent.add(pos, z)
            byte.add(pos, z)
            np.add.at(ref, pos, z)
        err_cent = np.abs(cent.snapshot() - ref).sum()
        err_byte = np.abs(byte.snapshot() - ref).sum()
        assert err_cent > 3 * err_byte

    def test_merge_lut_vs_exact_close(self):
        """``merge`` (the LUT where totals are within 2x, real-space
        re-quantisation elsewhere) stays within quantisation noise of the
        exact sum of the two snapshots."""
        rng = np.random.default_rng(2)
        a = CentroidAccumulator(60)
        b = CentroidAccumulator(60)
        pos = rng.integers(0, 60, 100)
        z = rng.dirichlet([5, 1, 1, 1, 0.2], 100)
        a.add(pos[:50], z[:50])
        b.add(pos[50:], z[50:])
        exact = a.snapshot() + b.snapshot()
        a.merge(b)
        assert np.allclose(a.snapshot().sum(axis=1), exact.sum(axis=1), atol=1e-3)
        diff = np.abs(a.snapshot() - exact).sum() / max(exact.sum(), 1)
        assert diff < 0.4

    def test_buffer_round_trip(self):
        rng = np.random.default_rng(3)
        acc = CentroidAccumulator(20)
        acc.add(rng.integers(0, 20, 30), rng.dirichlet(np.ones(5), 30))
        back = CentroidAccumulator.from_buffers(20, acc.to_buffers())
        assert np.allclose(back.snapshot(), acc.snapshot())

    def test_update_mode_validation(self):
        with pytest.raises(AccumulatorError):
            CentroidAccumulator(5, update_mode="bogus")

    def test_buffer_round_trip_preserves_mode(self):
        acc = CentroidAccumulator(5, update_mode="weighted")
        back = CentroidAccumulator.from_buffers(5, acc.to_buffers())
        assert back.update_mode == "weighted"
        lut = CentroidAccumulator(5, update_mode="lut")
        assert CentroidAccumulator.from_buffers(5, lut.to_buffers()).update_mode == "lut"

    def test_lut_update_is_recency_biased(self):
        """The paper's table-lookup update treats each add as half the
        evidence: after many A-adds, a couple of T-adds drag the state to
        ~50/50 — the mechanism behind Table III's accuracy collapse."""
        acc = CentroidAccumulator(1, update_mode="lut")
        a_unit = np.array([[1.0, 0, 0, 0, 0]])
        t_unit = np.array([[0, 0, 0, 1.0, 0]])
        for _ in range(20):
            acc.add(np.array([0]), a_unit)
        for _ in range(2):
            acc.add(np.array([0]), t_unit)
        snap = acc.snapshot()[0]
        # truth: 20 A vs 2 T (91% A); LUT state says T holds a huge share
        assert snap[3] / snap.sum() > 0.3

    def test_weighted_update_is_faithful(self):
        acc = CentroidAccumulator(1, update_mode="weighted")
        a_unit = np.array([[1.0, 0, 0, 0, 0]])
        t_unit = np.array([[0, 0, 0, 1.0, 0]])
        for _ in range(20):
            acc.add(np.array([0]), a_unit)
        for _ in range(2):
            acc.add(np.array([0]), t_unit)
        snap = acc.snapshot()[0]
        assert abs(snap[0] / snap.sum() - 20 / 22) < 0.1

    def test_factory_modes(self):
        from repro.memory.base import make_accumulator

        assert make_accumulator("CENTDISC", 5).update_mode == "lut"
        assert make_accumulator("CENTDISC_WEIGHTED", 5).update_mode == "weighted"

    def test_nbytes_smallest(self):
        from repro.memory.chardisc import ByteAccumulator
        from repro.memory.dense import DenseAccumulator

        n = 1000
        assert (
            CentroidAccumulator(n).nbytes()
            < ByteAccumulator(n).nbytes()
            < DenseAccumulator(n).nbytes()
        )
        assert CentroidAccumulator(n).nbytes() == n * (4 + 1)
