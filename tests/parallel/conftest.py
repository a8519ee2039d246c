"""Every test under ``tests/parallel/`` must reap the processes it starts."""

import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_children():
    # Relative to the children alive at entry, so a leak is pinned on the
    # test that made it whatever ran earlier in the session.
    before = set(multiprocessing.active_children())
    yield
    assert set(multiprocessing.active_children()) - before == set()
