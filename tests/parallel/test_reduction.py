"""Tests for accumulator reductions over the communicator."""

import numpy as np
import pytest

from repro.errors import CommError
from repro.memory.base import make_accumulator
from repro.parallel.cluster import Cluster
from repro.parallel.costmodel import LogGPModel
from repro.parallel.reduction import reduce_accumulator

MODES = ["NORM", "CHARDISC", "CENTDISC"]


def fill(acc, seed):
    rng = np.random.default_rng(seed)
    pos = rng.integers(0, acc.length, 50)
    z = rng.dirichlet([5, 1, 1, 1, 0.2], 50)
    acc.add(pos, z)
    return pos, z


@pytest.mark.parametrize("mode", MODES)
class TestReduce:
    def test_reduce_to_root(self, mode):
        def program(comm):
            acc = make_accumulator(mode, 30)
            fill(acc, seed=comm.rank)
            merged = reduce_accumulator(comm, acc, root=0)
            return None if merged is None else merged.total_depth().sum()

        res = Cluster(3).run(program)
        assert res.results[0] is not None
        assert res.results[1] is None and res.results[2] is None
        # total evidence = 3 ranks x 50 contributions of unit mass
        assert res.results[0] == pytest.approx(150.0, rel=1e-3)


class TestReductionSemantics:
    def test_dense_reduction_matches_serial(self):
        # reduction result == adding everything into one accumulator
        contributions = [fill(make_accumulator("NORM", 30), seed=s) for s in range(3)]

        serial = make_accumulator("NORM", 30)
        for pos, z in contributions:
            serial.add(pos, z)

        def program(comm):
            acc = make_accumulator("NORM", 30)
            pos, z = contributions[comm.rank]
            acc.add(pos, z)
            merged = reduce_accumulator(comm, acc)
            return None if merged is None else merged.snapshot()

        res = Cluster(3).run(program)
        assert np.allclose(res.results[0], serial.snapshot(), atol=1e-5)

    def test_payload_size_drives_virtual_cost(self):
        cost = LogGPModel(latency=0, byte_time=1e-9)

        def program(comm, mode):
            acc = make_accumulator(mode, 50_000)
            reduce_accumulator(comm, acc)
            return comm.now

        t_norm = Cluster(2, cost).run(program, "NORM").results[0]
        t_cent = Cluster(2, cost).run(program, "CENTDISC").results[0]
        # NORM ships 20 B/base, CENTDISC 5 B/base -> ~4x cheaper reduce
        assert t_norm > 2.5 * t_cent

    def test_mismatched_types_rejected(self):
        def program(comm):
            mode = "NORM" if comm.rank == 0 else "CHARDISC"
            acc = make_accumulator(mode, 30)
            reduce_accumulator(comm, acc)

        with pytest.raises(CommError):
            Cluster(2, timeout=5.0).run(program)

    def test_mismatched_lengths_rejected(self):
        def program(comm):
            acc = make_accumulator("NORM", 30 + comm.rank)
            reduce_accumulator(comm, acc)

        with pytest.raises(CommError):
            Cluster(2, timeout=5.0).run(program)
