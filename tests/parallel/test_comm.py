"""Tests for the thread-backed communicator (semantics and virtual time)."""

import numpy as np
import pytest

from repro.errors import CommError
from repro.parallel.cluster import Cluster
from repro.parallel.comm import make_world
from repro.parallel.costmodel import LogGPModel


def run(n_ranks, program, cost=None, timeout=20.0):
    return Cluster(n_ranks, cost, timeout=timeout).run(program)


class TestPointToPoint:
    def test_send_recv_value(self):
        def program(comm):
            if comm.rank == 0:
                comm.send({"v": 42}, dest=1)
                return None
            return comm.recv(source=0)

        res = run(2, program)
        assert res.results[1] == {"v": 42}

    def test_numpy_payload(self):
        def program(comm):
            if comm.rank == 0:
                comm.send(np.arange(5), dest=1, tag=3)
                return None
            return comm.recv(source=0, tag=3).sum()

        assert run(2, program).results[1] == 10

    def test_tag_matching(self):
        def program(comm):
            if comm.rank == 0:
                comm.send("b", dest=1, tag=2)
                comm.send("a", dest=1, tag=1)
                return None
            first = comm.recv(source=0, tag=1)
            second = comm.recv(source=0, tag=2)
            return (first, second)

        assert run(2, program).results[1] == ("a", "b")

    def test_self_send_rejected(self):
        def program(comm):
            comm.send(1, dest=comm.rank)

        with pytest.raises(CommError):
            run(1, program)

    def test_invalid_ranks_rejected(self):
        def program(comm):
            comm.send(1, dest=99)

        with pytest.raises(CommError):
            run(2, program)

    def test_recv_timeout_raises(self):
        def program(comm):
            if comm.rank == 1:
                comm.recv(source=0)  # never sent

        with pytest.raises(CommError):
            run(2, program, timeout=1.0)

    def test_virtual_time_p2p(self):
        cost = LogGPModel(latency=0.5, byte_time=0.0)

        def program(comm):
            if comm.rank == 0:
                comm.send("x", dest=1)
                return comm.now
            comm.recv(source=0)
            return comm.now

        res = run(2, program, cost)
        assert res.results[0] == pytest.approx(0.0)
        assert res.results[1] == pytest.approx(0.5)


class TestCollectives:
    def test_bcast(self):
        def program(comm):
            return comm.bcast("hello" if comm.rank == 0 else None, root=0)

        assert run(3, program).results == ["hello"] * 3

    def test_bcast_nonzero_root(self):
        def program(comm):
            return comm.bcast(comm.rank if comm.rank == 2 else None, root=2)

        assert run(3, program).results == [2, 2, 2]

    def test_gather(self):
        def program(comm):
            return comm.gather(comm.rank * 10 + 1, root=0)

        res = run(4, program)
        assert res.results[0] == [1, 11, 21, 31]
        assert res.results[1] is None

    def test_allreduce_sum(self):
        def program(comm):
            return comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)

        assert run(4, program).results == [10] * 4

    def test_reduce_rank_order_deterministic(self):
        def program(comm):
            # string concat is order-sensitive: must be rank order
            return comm.reduce(str(comm.rank), op=lambda a, b: a + b, root=0)

        assert run(4, program).results[0] == "0123"

    def test_allreduce_numpy(self):
        def program(comm):
            return comm.allreduce(np.full(3, comm.rank, dtype=float),
                                  op=lambda a, b: a + b)

        res = run(3, program)
        assert np.allclose(res.results[0], [3, 3, 3])

    def test_collective_virtual_cost_scales_with_payload(self):
        big = np.zeros(10**6)
        small = np.zeros(10)
        cost = LogGPModel(latency=0, byte_time=1e-9)

        def program_payload(comm, payload):
            comm.bcast(payload if comm.rank == 0 else None)
            return comm.now

        t_big = Cluster(2, cost).run(program_payload, big).results[0]
        t_small = Cluster(2, cost).run(program_payload, small).results[0]
        assert t_big > t_small * 100

    def test_sequential_collectives_no_crosstalk(self):
        def program(comm):
            a = comm.allreduce(1, op=lambda x, y: x + y)
            b = comm.gather(comm.rank)
            c = comm.bcast("z" if comm.rank == 0 else None)
            return (a, b, c)

        res = run(3, program)
        assert res.results == [(3, [0, 1, 2], "z"), (3, None, "z"), (3, None, "z")]


class TestWorldConstruction:
    def test_make_world_size(self):
        world = make_world(4)
        assert [c.rank for c in world] == [0, 1, 2, 3]
        assert all(c.size == 4 for c in world)

    def test_bad_size_rejected(self):
        with pytest.raises(CommError):
            make_world(0)
