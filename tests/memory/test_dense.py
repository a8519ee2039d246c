"""Tests for the NORM dense accumulator."""

import numpy as np
import pytest

from repro.errors import AccumulatorError
from repro.memory.base import make_accumulator
from repro.memory.dense import DenseAccumulator


class TestDenseAccumulator:
    def test_add_and_snapshot(self):
        acc = DenseAccumulator(10)
        acc.add(np.array([2, 5]), np.array([[1, 0, 0, 0, 0], [0, 2, 0, 0, 0.5]]))
        snap = acc.snapshot()
        assert snap[2, 0] == 1.0
        assert snap[5, 1] == 2.0
        assert snap[5, 4] == pytest.approx(0.5)
        assert snap.sum() == pytest.approx(3.5)

    def test_repeated_positions_in_one_batch(self):
        acc = DenseAccumulator(4)
        acc.add(np.array([1, 1, 1]), np.ones((3, 5)))
        assert acc.snapshot()[1].tolist() == [3.0] * 5

    def test_add_rounds_row_by_row_in_order_as_np_add_at(self):
        """The compiled scatter-add keeps ``np.add.at``'s float32 bits:
        repeated positions, rows in order, strided inputs."""
        rng = np.random.default_rng(8)
        positions = rng.integers(0, 7, 400)
        z = rng.exponential(1e-3, (400, 10))[:, ::2]  # not C-contiguous
        acc = DenseAccumulator(7)
        for lo in range(0, 400, 150):
            acc.add(positions[lo : lo + 150], z[lo : lo + 150])
        want = np.zeros((7, 5), dtype=np.float32)
        np.add.at(want, positions, z.astype(np.float32))
        assert acc.to_buffers()["z"].tobytes() == want.tobytes()

    def test_empty_add(self):
        acc = DenseAccumulator(4)
        acc.add(np.array([], dtype=np.int64), np.zeros((0, 5)))
        assert acc.snapshot().sum() == 0

    def test_validation(self):
        acc = DenseAccumulator(4)
        with pytest.raises(AccumulatorError):
            acc.add(np.array([9]), np.ones((1, 5)))
        with pytest.raises(AccumulatorError):
            acc.add(np.array([-1]), np.ones((1, 5)))
        with pytest.raises(AccumulatorError):
            acc.add(np.array([0]), np.ones((1, 4)))
        with pytest.raises(AccumulatorError):
            acc.add(np.array([0]), -np.ones((1, 5)))
        with pytest.raises(AccumulatorError):
            DenseAccumulator(0)

    def test_merge_equals_combined_adds(self):
        rng = np.random.default_rng(0)
        pos = rng.integers(0, 50, 200)
        z = rng.dirichlet([3, 1, 1, 1, 0.5], 200)
        a = DenseAccumulator(50)
        b = DenseAccumulator(50)
        full = DenseAccumulator(50)
        a.add(pos[:100], z[:100])
        b.add(pos[100:], z[100:])
        full.add(pos, z)
        a.merge(b)
        assert np.allclose(a.snapshot(), full.snapshot(), atol=1e-5)

    def test_merge_type_mismatch_rejected(self):
        a = DenseAccumulator(5)
        b = make_accumulator("CHARDISC", 5)
        with pytest.raises(AccumulatorError):
            a.merge(b)

    def test_merge_length_mismatch_rejected(self):
        with pytest.raises(AccumulatorError):
            DenseAccumulator(5).merge(DenseAccumulator(6))

    def test_buffer_round_trip(self):
        acc = DenseAccumulator(8)
        acc.add(np.array([3]), np.array([[0.5, 1, 0, 0, 0.25]]))
        back = DenseAccumulator.from_buffers(8, acc.to_buffers())
        assert np.allclose(back.snapshot(), acc.snapshot())

    def test_nbytes(self):
        assert DenseAccumulator(100).nbytes() == 100 * 5 * 4

    def test_total_depth(self):
        acc = DenseAccumulator(3)
        acc.add(np.array([1]), np.array([[1, 1, 1, 1, 1.0]]))
        assert acc.total_depth().tolist() == [0.0, 5.0, 0.0]

    def test_factory(self):
        assert isinstance(make_accumulator("norm", 5), DenseAccumulator)
        with pytest.raises(AccumulatorError):
            make_accumulator("wat", 5)
