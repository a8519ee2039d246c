"""Tests for the cluster driver (error propagation, timing, results)."""

import pytest

from repro.errors import CommError
from repro.parallel.cluster import Cluster
from repro.parallel.costmodel import LogGPModel


class TestClusterRun:
    def test_results_per_rank(self):
        res = Cluster(4).run(lambda comm: comm.rank * 2)
        assert res.results == [0, 2, 4, 6]
        assert len(res.virtual_times) == 4

    def test_extra_args_forwarded(self):
        res = Cluster(2).run(lambda comm, a, b: a + b + comm.rank, 10, 20)
        assert res.results == [30, 31]

    def test_makespan_is_max(self):
        def program(comm):
            comm.account_compute(float(comm.rank))

        res = Cluster(3).run(program)
        assert res.makespan == pytest.approx(2.0)

    def test_exception_propagates_and_aborts_peers(self):
        def program(comm):
            if comm.rank == 1:
                raise ValueError("boom")
            comm.bcast(None)  # would hang forever without abort

        with pytest.raises(CommError, match="rank 1 failed"):
            Cluster(3, timeout=10.0).run(program)

    def test_first_failing_rank_reported(self):
        def program(comm):
            raise RuntimeError(f"r{comm.rank}")

        with pytest.raises(CommError, match="rank 0 failed"):
            Cluster(2, timeout=5.0).run(program)

    def test_bad_rank_count(self):
        with pytest.raises(CommError):
            Cluster(0)

    def test_cluster_reusable(self):
        cluster = Cluster(2, LogGPModel())
        r1 = cluster.run(lambda comm: comm.allreduce(1, op=lambda a, b: a + b))
        r2 = cluster.run(lambda comm: comm.allreduce(2, op=lambda a, b: a + b))
        assert r1.results == [2, 2]
        assert r2.results == [4, 4]

    def test_single_rank_world(self):
        res = Cluster(1).run(lambda comm: comm.gather(comm.rank))
        assert res.results == [[0]]
