"""Tests for the genomic k-mer hash index."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.genome.reference import Reference
from repro.index.hashindex import DIRECT_MAX_K, GenomeIndex
from repro.index.kmer import rolling_kmers
from repro.observability import MetricsRegistry, use
from repro.simulate.genome_sim import GenomeSpec, simulate_genome


def ref_from(seq: str) -> Reference:
    return Reference.from_string(seq)


def pack_kmer(codes: np.ndarray) -> int:
    packed, _ = rolling_kmers(codes, codes.size)
    return int(packed[0])


def hits_of(idx: GenomeIndex, packed_kmer: int) -> np.ndarray:
    return idx.lookup_seeds_flat(np.array([packed_kmer]))[0]


class TestConstruction:
    def test_counts(self):
        ref = ref_from("ACGTACGT")
        idx = GenomeIndex(ref, k=4)
        # 5 windows, 4 distinct k-mers (ACGT repeats)
        assert idx.n_indexed_positions == 5
        assert idx.n_indexed_kmers == 4

    def test_genome_shorter_than_k_rejected(self):
        with pytest.raises(IndexError_):
            GenomeIndex(ref_from("ACG"), k=5)

    def test_bad_k_rejected(self):
        with pytest.raises(IndexError_):
            GenomeIndex(ref_from("ACGT"), k=0)

    def test_bad_max_positions_rejected(self):
        with pytest.raises(IndexError_):
            GenomeIndex(ref_from("ACGTACGT"), k=3, max_positions_per_kmer=0)

    def test_n_windows_excluded(self):
        idx = GenomeIndex(ref_from("ACGNACG"), k=3)
        # windows touching N (positions 1,2,3) are dropped
        assert idx.n_indexed_positions == 2


class TestLookup:
    def test_every_position_findable(self):
        ref, _ = simulate_genome(GenomeSpec(length=3000, n_repeats=0), seed=1)
        idx = GenomeIndex(ref, k=10, max_positions_per_kmer=None)
        packed, valid = rolling_kmers(ref.codes, 10)
        rng = np.random.default_rng(0)
        for pos in rng.integers(0, packed.size, 50):
            if not valid[pos]:
                continue
            assert pos in hits_of(idx, int(packed[pos]))

    def test_absent_kmer_empty(self):
        idx = GenomeIndex(ref_from("AAAAAAAA"), k=3)
        from repro.genome.alphabet import encode
        assert hits_of(idx, pack_kmer(encode("TTT"))).size == 0

    def test_repeat_positions_all_reported(self):
        idx = GenomeIndex(ref_from("ACGTAACGTA"), k=5)
        from repro.genome.alphabet import encode
        hits = hits_of(idx, pack_kmer(encode("ACGTA")))
        assert sorted(hits.tolist()) == [0, 5]


class TestQueryDtype:
    """The search runs in the table's dtype (a mixed-dtype ``searchsorted``
    converts the whole table on every call); a query that dtype cannot hold
    is in no table and must come back "not found", never wrapped."""

    def test_query_beyond_int32_table_finds_nothing(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=3)
        idx = GenomeIndex(ref, k=10)
        assert idx.shared_state()[0]["unique_kmers"].dtype == np.int32
        present = rolling_kmers(ref.codes, 10)[0][:8]
        # + 2**32 wraps back onto an indexed k-mer when narrowed to int32.
        for too_wide in (present + (1 << 32), present + (1 << 31), -present - 1):
            hits, qidx = idx.lookup_seeds_flat(too_wide)
            assert hits.size == 0 and qidx.size == 0
        starts, counts = idx.locate_seeds(np.concatenate([present, present + (1 << 32)]))
        assert (counts[:8] > 0).all() and (counts[8:] == 0).all()

    def test_same_dtype_search_equals_int64_search(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            table = np.unique(rng.integers(0, 1 << 20, rng.integers(1, 300))).astype(np.int32)
            runs = rng.integers(1, 4, table.size)
            offsets = np.concatenate([[0], np.cumsum(runs)]).astype(np.int32)
            queries = rng.integers(-5, (1 << 20) + 5, 200)
            starts, counts = GenomeIndex._locate(table, offsets, queries)
            wide = table.astype(np.int64)
            at = np.minimum(np.searchsorted(wide, queries), wide.size - 1)
            found = wide[at] == queries
            assert np.array_equal(counts, np.where(found, runs[at], 0))
            assert np.array_equal(starts[found], offsets[at][found])


class TestRepeatMasking:
    def test_masked_build_equals_row_by_row_marking(self):
        """The vectorised drop of over-represented k-mers builds the CSR
        table a per-group marking loop would: a row per possible k-mer up
        to ``DIRECT_MAX_K``, a row per kept k-mer beyond it."""
        ref, _ = simulate_genome(
            GenomeSpec(length=8000, n_repeats=3, repeat_length=300,
                       repeat_divergence=0.0),
            seed=4,
        )
        for width, cap in ((4, 30), (10, 2), (10, 1), (20, 1)):
            idx = GenomeIndex(ref, k=width, max_positions_per_kmer=cap)
            packed, valid = rolling_kmers(ref.codes, width)
            where = {}
            for pos in np.flatnonzero(valid).tolist():
                where.setdefault(int(packed[pos]), []).append(pos)
            kept = {kmer: ps for kmer, ps in where.items() if len(ps) <= cap}
            assert 0 < len(kept) < len(where), "masking must fire and spare some"
            unique, offsets, positions = idx.shared_state()[0].values()
            if width <= DIRECT_MAX_K:
                assert unique.size == 0
                rows = np.zeros(4**width, dtype=np.int64)
                rows[list(kept)] = [len(ps) for ps in kept.values()]
                assert np.array_equal(np.diff(offsets), rows)
            else:
                assert unique.tolist() == sorted(kept)
                assert np.diff(offsets).tolist() == [len(kept[kmer]) for kmer in sorted(kept)]
            assert positions.tolist() == [p for kmer in sorted(kept) for p in kept[kmer]]
            assert idx.n_masked_kmers == len(where) - len(kept)
            assert idx.n_indexed_kmers == len(kept)

    def test_high_frequency_kmers_dropped(self):
        ref = ref_from("A" * 100 + "ACGTACGTCC")
        idx = GenomeIndex(ref, k=5, max_positions_per_kmer=10)
        from repro.genome.alphabet import encode
        assert hits_of(idx, pack_kmer(encode("AAAAA"))).size == 0
        assert idx.n_masked_kmers >= 1

    def test_none_keeps_everything(self):
        ref = ref_from("A" * 50)
        idx = GenomeIndex(ref, k=5, max_positions_per_kmer=None)
        from repro.genome.alphabet import encode
        assert hits_of(idx, pack_kmer(encode("AAAAA"))).size == 46
        assert idx.n_masked_kmers == 0


class TestLongSeedTable:
    """``seed_len=20`` is the one table built 20 wide — the ``k=20`` index."""

    def test_long_table_positions_findable(self):
        ref, _ = simulate_genome(GenomeSpec(length=3000, n_repeats=0), seed=5)
        idx = GenomeIndex(ref, k=10, seed_len=20)
        assert idx.seed_width == 20
        packed, valid = rolling_kmers(ref.codes, 20)
        queries = np.nonzero(valid)[0][:25]
        hits, qidx = idx.lookup_seeds_flat(packed[queries])
        for i, qp in enumerate(queries):
            assert qp in hits[qidx == i]

    def test_seed_len_validation(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=6)
        assert GenomeIndex(ref, k=10).seed_width == 10
        assert GenomeIndex(ref, k=10, seed_len=8).seed_width == 8  # an override
        with pytest.raises(IndexError_):
            GenomeIndex(ref, k=10, seed_len=32)  # past MAX_K
        with pytest.raises(IndexError_):
            GenomeIndex(ref_from("ACGTACGTACGTACG"), k=10, seed_len=20)

    def test_from_arrays_roundtrip_with_long_table(self):
        ref, _ = simulate_genome(GenomeSpec(length=2500, n_repeats=0), seed=7)
        built = GenomeIndex(ref, k=10, seed_len=20)
        arrays, scalars = built.shared_state()
        assert arrays["unique_kmers"].dtype == np.int64  # 40 bits per seed
        attached = GenomeIndex.from_arrays(ref, **arrays, **scalars)
        packed, valid = rolling_kmers(ref.codes, 20)
        q = packed[np.nonzero(valid)[0][:30]]
        a = built.lookup_seeds_flat(q)
        b = attached.lookup_seeds_flat(q)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
        assert attached.nbytes() == built.nbytes()
        assert attached.seed_width == 20
        with pytest.raises(IndexError_):
            GenomeIndex.from_arrays(
                ref, **{**arrays, "offsets": arrays["offsets"][:-1]}, **scalars
            )

    def test_masked_gauge_describes_the_queried_table(self):
        """A 20-mer with more than 64 copies is masked from the table
        seeding queries, and ``index.masked_kmers`` counts it and nothing
        else: the gauges are the one table's, whichever way its width was
        spelled.  (The C run holds 71 copies of its 10-mer but only 61 of
        its 20-mer, so a 10-wide table would report 2.)"""
        from repro.genome.alphabet import encode

        ref = ref_from("A" * 200 + "ACGTACGTCCGGATTACAGGAGTG" + "C" * 80 + "GTTA")
        poly_a, poly_c = (np.array([pack_kmer(encode(b * 20))]) for b in "AC")
        snapshots = []
        for spelling in (dict(k=10, seed_len=20), dict(k=20)):
            with use(MetricsRegistry()) as reg:
                idx = GenomeIndex(ref, max_positions_per_kmer=64, **spelling)
                snapshots.append(reg.snapshot().gauges)
            assert idx.lookup_seeds_flat(poly_a)[0].size == 0
            assert idx.lookup_seeds_flat(poly_c)[0].size == 61
            assert idx.n_masked_kmers == 1
        for gauges in snapshots:
            assert gauges["index.masked_kmers"] == 1
            assert gauges["index.kmers"] == idx.n_indexed_kmers
            assert gauges["index.positions"] == idx.n_indexed_positions
            assert gauges["index.bytes"] == idx.nbytes()
            assert not any(name.startswith("index.long") for name in gauges)
        assert snapshots[0] == snapshots[1]


class TestFootprint:
    def test_nbytes_positive_and_scales(self):
        small, _ = simulate_genome(GenomeSpec(length=1000, n_repeats=0), seed=3)
        large, _ = simulate_genome(GenomeSpec(length=10_000, n_repeats=0), seed=3)
        b_small = GenomeIndex(small).nbytes()
        b_large = GenomeIndex(large).nbytes()
        assert 0 < b_small < b_large

    def test_compact_dtypes(self):
        ref, _ = simulate_genome(GenomeSpec(length=1000, n_repeats=0), seed=4)
        idx = GenomeIndex(ref, k=10)
        # int32 everywhere at this scale: the direct table's fixed 4**k + 1
        # offsets plus one int32 per indexed position.
        arrays = idx.shared_state()[0]
        assert arrays["offsets"].dtype == arrays["positions"].dtype == np.int32
        assert idx.nbytes() == 4 * (4**10 + 1) + arrays["positions"].nbytes


def sorted_key_table(codes, k, cap):
    """The sorted-key CSR build the direct table replaced: ``np.unique`` over
    the stably sorted k-mers, masked, as ``(keys, offsets, positions)``."""
    packed, valid = rolling_kmers(codes, k)
    positions = np.flatnonzero(valid)
    kmers = packed[valid]
    order = np.argsort(kmers, kind="stable")
    kmers, positions = kmers[order], positions[order]
    _, counts = np.unique(kmers, return_counts=True)
    if cap is not None:
        rows = np.repeat(counts <= cap, counts)
        kmers, positions = kmers[rows], positions[rows]
    keys, starts = np.unique(kmers, return_index=True)
    return keys, np.append(starts, kmers.size), positions, int(counts.size - keys.size)


def sorted_key_locate(keys, offsets, queries):
    """``(starts, counts)`` by binary search over int64 keys."""
    if keys.size == 0:
        return np.zeros(queries.size, np.int64), np.zeros(queries.size, np.int64)
    at = np.minimum(np.searchsorted(keys, queries), keys.size - 1)
    found = keys[at] == queries
    return offsets[at], np.where(found, offsets[at + 1] - offsets[at], 0)


@st.composite
def genomes(draw):
    """Random codes with exact repeats copied in and runs of N."""
    length = draw(st.integers(20, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.integers(0, 4, length).astype(np.uint8)
    for _ in range(draw(st.integers(0, 4))):
        size = draw(st.integers(1, length // 2))
        src, dst = (draw(st.integers(0, length - size)) for _ in range(2))
        codes[dst : dst + size] = codes[src : src + size].copy()
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, length - 1))
        codes[at : at + draw(st.integers(1, 30))] = 4
    return codes


@settings(max_examples=60, deadline=None)
@given(
    genomes(),
    st.sampled_from([*range(1, 13), 20]),
    st.sampled_from([None, 1, 2, 64]),
    st.integers(0, 2**32 - 1),
)
def test_table_equals_sorted_key_search(codes, k, cap, seed):
    """Direct table (k <= DIRECT_MAX_K) or sorted keys (wider), every query finds what
    the sorted-key build's binary search finds, and the shared-memory round
    trip is the same index."""
    ref = Reference(codes, name="g")
    idx = GenomeIndex(ref, k=k, max_positions_per_kmer=cap)
    keys, offsets, positions, n_masked = sorted_key_table(codes, k, cap)
    rng = np.random.default_rng(seed)
    space = 4**k
    queries = np.concatenate([
        rolling_kmers(codes, k)[0],
        rng.integers(0, space, 50),
        -rng.integers(1, 1 << 40, 5),
        space + rng.integers(0, 5, 5),
        (1 << 31) + rng.integers(0, 5, 5),
        (1 << 32) + rng.integers(0, min(space, 1 << 20), 5),
    ])
    want_starts, want_counts = sorted_key_locate(keys, offsets, queries)
    want_hits = [positions[a : a + n] for a, n in zip(want_starts, want_counts)]
    want_hits = np.concatenate([np.empty(0, np.int64), *want_hits])
    want_qidx = np.repeat(np.arange(queries.size), want_counts)

    arrays, scalars = idx.shared_state()
    attached = GenomeIndex.from_arrays(ref, **arrays, **scalars)
    for index in (idx, attached):
        starts, counts = index.locate_seeds(queries)
        assert np.array_equal(counts, want_counts)
        assert np.array_equal(starts[counts > 0], want_starts[counts > 0])
        hits, qidx = index.lookup_seeds_flat(queries)
        assert np.array_equal(hits, want_hits) and np.array_equal(qidx, want_qidx)
        assert index.n_indexed_kmers == keys.size
        assert index.n_indexed_positions == positions.size
        assert index.n_masked_kmers == n_masked
        assert index.nbytes() == idx.nbytes()
    assert arrays["unique_kmers"].size == (0 if k <= DIRECT_MAX_K else keys.size)
