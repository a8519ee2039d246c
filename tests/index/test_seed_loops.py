"""The seeding layer's two C loops against their NumPy oracles, bit for bit.

``qgram_filter`` (through ``Seeder._qgram_keep``) against the NumPy body it
replaced (``reference_filter.py``), and ``lower_bound`` (through
``GenomeIndex._locate``) against ``np.searchsorted``; plus the filter's
memory: the seeder holds no genome-length state.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.index.seeding import QGRAM_Q, Seeder, SeederConfig
from repro.observability import scope
from repro.phmm.lanes import LIB
from tests.index import reference_filter


def _n_run(draw, codes):
    """Overwrite a short run of ``codes`` with N, or not."""
    if codes.size and draw(st.booleans()):
        at = draw(st.integers(0, codes.size - 1))
        codes[at : at + draw(st.integers(1, 6))] = 4


@st.composite
def filter_blocks(draw):
    """``(reference, codes, lens, c_seq, diagonal)``: a short reference and a
    block of sequences, some cut from it, some shorter than q, with N runs
    in both; windows on random sequences in random order, from off the left
    end (nothing to measure) through edge-clamped to off the right end."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    glen = draw(st.integers(1, 300))
    reference = rng.integers(0, 4, glen).astype(np.uint8)
    for _ in range(draw(st.integers(0, 3))):
        _n_run(draw, reference)
    lens = np.array(draw(st.lists(st.integers(1, 40), min_size=1, max_size=6)))
    parts = []
    for length in lens.tolist():
        if length <= glen and draw(st.booleans()):
            at = draw(st.integers(0, glen - length))
            seq = reference[at : at + length].copy()
            seq[rng.integers(0, length, 2)] = rng.integers(0, 4, 2)
        else:
            seq = rng.integers(0, 4, length).astype(np.uint8)
        _n_run(draw, seq)
        parts.append(seq)
    n_windows = draw(st.integers(0, 16))
    c_seq = rng.integers(0, lens.size, n_windows)
    if draw(st.booleans()):
        c_seq.sort()
    diagonal = rng.integers(-int(lens.max()) - 8, glen + 8, n_windows)
    return reference, np.concatenate(parts), lens, c_seq, diagonal


@settings(max_examples=200, deadline=None)
@given(
    filter_blocks(),
    st.integers(0, 4),
    st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)),
)
def test_qgram_keep_equals_the_numpy_body(block, slack, threshold):
    """Decisions, ``seed.filtered``, and the C loop's per-window counts."""
    reference, codes, lens, c_seq, diagonal = block
    cfg = SeederConfig(diagonal_slack=slack, qgram_filter=True, filter_threshold=threshold)
    seeder = Seeder(GenomeIndex(Reference(reference), k=1), cfg)
    with scope() as reg:
        keep = seeder._qgram_keep(codes, lens, c_seq, diagonal)
    want = reference_filter.qgram_keep(
        reference, codes, lens, c_seq, diagonal, slack, threshold, QGRAM_Q
    )
    np.testing.assert_array_equal(keep, want)
    assert reg.snapshot().counters.get("seed.filtered", 0) == np.count_nonzero(~want)

    lo = np.maximum(0, diagonal - slack)
    hi = np.minimum(reference.size, diagonal + lens[c_seq] + slack)
    start = np.cumsum(lens) - lens
    own, matches = np.empty((2, c_seq.size), dtype=np.int64)
    LIB.qgram_filter(
        c_seq.size, QGRAM_Q, reference.ctypes.data, codes.ctypes.data, start.ctypes.data,
        lens.ctypes.data, c_seq.ctypes.data, lo.ctypes.data, hi.ctypes.data,
        own.ctypes.data, matches.ctypes.data,
    )
    want_own, want_matches = reference_filter.qgram_counts(
        reference, codes, lens, c_seq, lo, hi, QGRAM_Q
    )
    np.testing.assert_array_equal(own, want_own)
    np.testing.assert_array_equal(matches, want_matches)


INT32_MAX = np.iinfo(np.int32).max


@st.composite
def key_tables(draw):
    """``(keys, queries)``: ascending distinct keys as int32 or int64 (a
    one-key table included), and int64 queries on, between, below and above
    them, past the int32 range and at the int64 extremes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    wide = draw(st.booleans())
    top = (1 << 62) if wide else INT32_MAX
    size = draw(st.sampled_from([1, 2, 3, 8, 65, 300]))
    dense = draw(st.booleans())  # neighbouring keys, so +-1 queries land on keys
    keys = np.unique(rng.integers(0, 3 * size if dense else top, size))
    edge = np.array([0, -1, top, top + 1, INT32_MAX, INT32_MAX + 1, 1 << 32, -(1 << 31) - 1,
                     np.iinfo(np.int64).min, np.iinfo(np.int64).max])
    queries = np.concatenate([
        keys, keys - 1, keys + 1, keys + (1 << 32), keys - (1 << 32),
        rng.integers(0, top, 20), edge,
    ])
    rng.shuffle(queries)
    return keys.astype(np.int64 if wide else np.int32), queries


@settings(max_examples=150, deadline=None)
@given(key_tables())
def test_lower_bound_equals_searchsorted(table):
    keys, queries = table
    got = np.empty(queries.size, dtype=np.int64)
    LIB.lower_bound(queries.size, queries.ctypes.data, keys.ctypes.data, keys.size,
                    keys.dtype.itemsize == 8, got.ctypes.data)
    np.testing.assert_array_equal(got, np.searchsorted(keys.astype(np.int64), queries))

    runs = np.arange(keys.size) % 3 + 1
    offsets = np.concatenate([[0], np.cumsum(runs)]).astype(keys.dtype)
    starts, counts = GenomeIndex._locate(keys, offsets, queries)
    at = np.minimum(np.searchsorted(keys.astype(np.int64), queries), keys.size - 1)
    found = keys[at] == queries
    np.testing.assert_array_equal(counts, np.where(found, runs[at], 0))
    np.testing.assert_array_equal(starts[found], offsets[at][found])


def test_first_filtering_seed_holds_no_genome_length_state():
    """Against a 4 Mbp reference the first filtering ``seed()`` peaks below
    16 MB of Python-visible allocations (a genome-wide q-gram table built on
    first use peaked at 142 MB and kept 8), and leaves the seeder holding no
    array."""
    rng = np.random.default_rng(4)
    codes = rng.integers(0, 4, 4_000_000).astype(np.uint8)
    index = GenomeIndex(Reference(codes, copy=False), k=10)
    quals = np.full(62, 30, dtype=np.uint8)
    reads = [Read(f"r{i}", codes[p : p + 62].copy(), quals)
             for i, p in enumerate(rng.integers(0, codes.size - 62, 512).tolist())]
    seeder = Seeder(index, SeederConfig(qgram_filter=True))
    tracemalloc.start()
    try:
        block = seeder.seed(reads)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(block) >= 512
    assert peak < 16 << 20
    assert not [name for name, v in vars(seeder).items() if isinstance(v, np.ndarray)]
