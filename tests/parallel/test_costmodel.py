"""Tests for the LogGP cost model and payload sizing."""

import numpy as np
import pytest

from repro.errors import CommError
from repro.parallel.costmodel import FREE, LogGPModel, payload_nbytes


class TestPayloadNbytes:
    def test_numpy_array(self):
        assert payload_nbytes(np.zeros(10, dtype=np.float64)) == 80

    def test_dict_of_arrays(self):
        buffers = {"a": np.zeros(5, dtype=np.float32), "b": np.zeros(3, dtype=np.uint8)}
        assert payload_nbytes(buffers) == 23

    def test_python_object_via_pickle(self):
        assert payload_nbytes({"x": 1}) > 0
        assert payload_nbytes(None) > 0

    def test_bigger_object_bigger_payload(self):
        assert payload_nbytes("a" * 1000) > payload_nbytes("a")


class TestLogGPModel:
    def test_p2p_linear_in_size(self):
        m = LogGPModel(latency=1e-4, byte_time=1e-8)
        assert m.p2p_time(0) == pytest.approx(1e-4)
        assert m.p2p_time(10**6) == pytest.approx(1e-4 + 1e-2)

    def test_collective_log_scaling(self):
        m = LogGPModel(latency=1e-4, byte_time=0)
        assert m.bcast_time(1, 100) == 0.0
        assert m.bcast_time(2, 100) == pytest.approx(1e-4)
        assert m.bcast_time(8, 100) == pytest.approx(3e-4)
        assert m.bcast_time(9, 100) == pytest.approx(4e-4)

    def test_allreduce_is_twice_reduce(self):
        m = LogGPModel()
        assert m.allreduce_time(8, 1000) == pytest.approx(2 * m.reduce_time(8, 1000))

    def test_gather_payload_doubles(self):
        m = LogGPModel(latency=0.0, byte_time=1e-9)
        # rounds with payload 1x, 2x, 4x -> total 7x
        assert m.gather_time(8, 1000) == pytest.approx(7e-6)

    def test_free_model_zero(self):
        assert FREE.p2p_time(10**9) == 0.0
        assert FREE.allreduce_time(32, 10**9) == 0.0

    def test_validation(self):
        with pytest.raises(CommError):
            LogGPModel(latency=-1)
        with pytest.raises(CommError):
            LogGPModel().p2p_time(-1)
        with pytest.raises(CommError):
            LogGPModel().bcast_time(0, 10)
