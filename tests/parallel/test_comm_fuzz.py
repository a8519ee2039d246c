"""Property/fuzz tests for the communicator: random but *consistent*
collective sequences executed by every rank must terminate with identical
results everywhere — the strongest guard on the rendezvous machinery."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.parallel.cluster import Cluster
from repro.parallel.costmodel import LogGPModel

OPS = ("bcast", "allreduce", "gather")


@settings(max_examples=15, deadline=None)
@given(
    n_ranks=st.integers(min_value=1, max_value=5),
    ops=st.lists(st.sampled_from(OPS), min_size=1, max_size=8),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_collective_sequences_terminate_consistently(n_ranks, ops, seed):
    def program(comm):
        rng = np.random.default_rng(seed)  # same stream on every rank
        trace = []
        for op in ops:
            root = int(rng.integers(0, comm.size))
            if op == "bcast":
                payload = int(rng.integers(0, 1000))
                got = comm.bcast(payload if comm.rank == root else None, root=root)
                trace.append(got)
            elif op == "allreduce":
                got = comm.allreduce(comm.rank + 1, op=lambda a, b: a + b)
                trace.append(got)
            elif op == "gather":
                got = comm.gather(comm.rank * 2, root=root)
                trace.append(tuple(got) if got is not None else None)
        return trace

    res = Cluster(n_ranks, LogGPModel(), timeout=30.0).run(program)
    # every rank completed; rank-independent entries agree everywhere
    assert len(res.results) == n_ranks
    for other in res.results[1:]:
        for a, b in zip(res.results[0], other):
            if a is None or b is None:  # gather non-root
                continue
            assert a == b
    # virtual clocks are synchronised after a pure-collective program
    assert len({round(t, 12) for t in res.virtual_times}) == 1


@settings(max_examples=10, deadline=None)
@given(
    n_pairs=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_random_p2p_exchanges_deliver_exactly_once(n_pairs, seed):
    """Random (src, dst, tag) message sets: every message arrives intact."""
    rng = np.random.default_rng(seed)
    n_ranks = 4
    msgs = [
        (int(rng.integers(0, n_ranks)), int(rng.integers(0, n_ranks)),
         int(rng.integers(0, 3)), int(rng.integers(0, 10**6)))
        for _ in range(n_pairs)
    ]
    msgs = [(s, d, t, v) for s, d, t, v in msgs if s != d]

    def program(comm):
        for s, d, t, v in msgs:
            if comm.rank == s:
                comm.send(v, dest=d, tag=t)
        got = []
        for s, d, t, v in msgs:
            if comm.rank == d:
                got.append(comm.recv(source=s, tag=t))
        expected = [v for s, d, t, v in msgs if d == comm.rank]
        # matching is by (source, tag) in program order: multisets agree
        return sorted(got) == sorted(expected)

    res = Cluster(n_ranks, timeout=30.0).run(program)
    assert all(res.results)
