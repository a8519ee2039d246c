"""Tests for the genomic k-mer hash index."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
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
        triple a per-group marking loop would."""
        ref, _ = simulate_genome(
            GenomeSpec(length=8000, n_repeats=3, repeat_length=300,
                       repeat_divergence=0.0),
            seed=4,
        )
        for width, cap in ((4, 30), (10, 2), (10, 1)):
            idx = GenomeIndex(ref, k=width, max_positions_per_kmer=cap)
            packed, valid = rolling_kmers(ref.codes, width)
            where = {}
            for pos in np.flatnonzero(valid).tolist():
                where.setdefault(int(packed[pos]), []).append(pos)
            kept = {kmer: ps for kmer, ps in where.items() if len(ps) <= cap}
            assert 0 < len(kept) < len(where), "masking must fire and spare some"
            unique, offsets, positions = idx.shared_state()[0].values()
            assert unique.tolist() == sorted(kept)
            assert positions.tolist() == [p for kmer in sorted(kept) for p in kept[kmer]]
            assert np.diff(offsets).tolist() == [len(kept[kmer]) for kmer in sorted(kept)]
            assert idx.n_masked_kmers == len(where) - len(kept)

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
        # int32 everywhere at this scale: < 13 bytes/base for the index
        assert idx.nbytes() / len(ref) < 13
