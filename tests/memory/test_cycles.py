"""The compiled update cycles against their NumPy oracles, bit for bit.

``tests/memory/reference_cycles.py`` holds the NumPy bodies the quantising
accumulators' ``add`` and the codebook's ``nearest`` had before they moved
into ``_lanes.c``.  Run one row per call, the oracle is the contract the C
loops keep: one cycle per row, rows in order, each rounding where NumPy
rounded (float64 sums left to right, the float32 total, the uint8 byte, the
``-c * 1e-12`` remainder tie-break, the first minimum of the fixed-order
distance sum).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.base import make_accumulator
from repro.memory.centdisc import default_codebook
from repro.memory.chardisc import quantize_rows
from tests.memory import reference_cycles as ref

KINDS = ["CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED"]
#: Rows whose remainders tie exactly, or whose sum is zero.
_TIES = np.array(
    [[1, 1, 1, 0, 0], [1, 1, 0, 0, 0], [1, 1, 1, 1, 0], [0, 1, 0, 1, 0], [0, 0, 0, 0, 0]],
    dtype=np.float64,
)


@st.composite
def cycles(draw):
    """A start state and rows to cycle into it: positions from a few values
    (so most are cycled many times), totals from zero past saturation, rows
    Dirichlet, tied or empty, scaled by weights including -0.0 and 5e-324,
    with entries in [-1e-12, 0) that ``add`` clamps to zero."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    length = draw(st.integers(min_value=1, max_value=12))
    n = draw(st.integers(min_value=0, max_value=60))
    totals = rng.choice([0.0, 0.5, 3.0, 254.0, 300.0, 1e4], length) * rng.choice(
        [1.0, rng.random()], length
    )
    state = (totals.astype(np.float32), rng.integers(0, 256, (length, 5)).astype(np.uint8))
    z = rng.dirichlet(np.full(5, 0.4), n)
    tied = rng.random(n) < 0.3
    z[tied] = _TIES[rng.integers(0, len(_TIES), tied.sum())]
    z *= rng.choice([0.0, -0.0, 5e-324, 1e-3, 1.0, 7.0, 400.0], n)[:, None]
    tiny = rng.random(z.shape) < 0.1
    z[tiny] = -rng.uniform(0, 1e-12, tiny.sum())
    return state, rng.integers(0, length, n), z


def _start(kind, state):
    total, bytes_ = state
    if kind == "CHARDISC":
        buffers = {"total": total, "bytes": bytes_.ravel()}
    else:
        weighted = np.array([kind == "CENTDISC_WEIGHTED"])
        buffers = {"total": total, "idx": bytes_[:, 0], "mode": weighted}
    return type(make_accumulator(kind, total.size)).from_buffers(total.size, buffers)


def _oracle(kind, acc, positions, z):
    """The NumPy cycle, one row per call, on a copy of ``acc``'s state."""
    buffers = {key: value.copy() for key, value in acc.to_buffers().items()}
    z = np.maximum(z, 0.0)  # add's clamp
    book = default_codebook()
    table = book.reduce_table() if kind == "CENTDISC" else None
    for r in range(positions.size):
        row = (positions[r : r + 1], z[r : r + 1])
        if kind == "CHARDISC":
            ref.chardisc_add(buffers["total"], buffers["bytes"].reshape(-1, 5), *row)
        else:
            ref.centdisc_add(buffers["total"], buffers["idx"], *row, book.centroids, table)
    return buffers


@settings(max_examples=150, deadline=None)
@given(cycles(), st.sampled_from(KINDS))
def test_add_equals_numpy_cycle_row_by_row(case, kind):
    state, positions, z = case
    acc = _start(kind, state)
    want = _oracle(kind, acc, positions, z)
    acc.add(positions, z)
    got = acc.to_buffers()
    for key, value in want.items():
        np.testing.assert_array_equal(got[key], value, err_msg=key)


@pytest.mark.parametrize("kind", KINDS)
def test_a_rows_mass_sums_left_to_right(kind):
    """``(((z0 + z1) + z2) + z3) + z4`` is 1 + 2^-24, a float32 tie that
    rounds to 1.0; any other order keeps 2^-52 more and rounds up."""
    z = np.array([[1.0, 2.0**-24, 2.0**-53, 2.0**-53, 0.0]])
    acc = make_accumulator(kind, 1)
    want = _oracle(kind, acc, np.zeros(1, np.int64), z)
    acc.add(np.zeros(1, np.int64), z)
    assert acc.to_buffers()["total"][0] == want["total"][0] == np.float32(1.0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=40))
def test_quantize_rows_equals_numpy(seed, rows):
    rng = np.random.default_rng(seed)
    real = rng.dirichlet(np.full(5, 0.5), rows) * rng.choice([0.0, 1e-3, 1.0, 300.0], rows)[:, None]
    real[rng.random(rows) < 0.3] = _TIES[rng.integers(0, len(_TIES))]
    totals = real.sum(axis=1) * rng.choice([1.0, 1.0 + 1e-9, 0.0], rows)
    np.testing.assert_array_equal(quantize_rows(real, totals), ref.quantize_rows(real, totals))


@pytest.mark.parametrize("rows", ["centroids", "midpoints", "dirichlet"])
def test_nearest_equals_the_gemm_search(rows):
    """The fixed-order search picks the GEMM path's centroid: on the
    centroids, on the exact ties of their pairwise midpoints, and on random
    simplex rows."""
    book = default_codebook()
    cents = book.centroids[1:]
    if rows == "centroids":
        f = cents
    elif rows == "midpoints":
        i, j = np.triu_indices(255, 1)
        f = (cents[i] + cents[j]) / 2.0
    else:
        f = np.random.default_rng(43).dirichlet(np.full(5, 0.3), 50_000)
    np.testing.assert_array_equal(book.nearest(f), ref.nearest_gemm(book.centroids, f))
