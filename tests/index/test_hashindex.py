"""Tests for the genomic k-mer hash index."""

import numpy as np
import pytest

from repro.errors import IndexError_
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.index.kmer import pack_kmer, rolling_kmers
from repro.simulate.genome_sim import GenomeSpec, simulate_genome


def ref_from(seq: str) -> Reference:
    return Reference.from_string(seq)


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
            hits = idx.lookup(int(packed[pos]))
            assert pos in hits

    def test_absent_kmer_empty(self):
        idx = GenomeIndex(ref_from("AAAAAAAA"), k=3)
        from repro.genome.alphabet import encode
        assert idx.lookup(pack_kmer(encode("TTT"))).size == 0

    def test_repeat_positions_all_reported(self):
        idx = GenomeIndex(ref_from("ACGTAACGTA"), k=5)
        from repro.genome.alphabet import encode
        hits = idx.lookup(pack_kmer(encode("ACGTA")))
        assert sorted(hits.tolist()) == [0, 5]

    def test_lookup_many_matches_lookup(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=2)
        idx = GenomeIndex(ref, k=8)
        packed, _ = rolling_kmers(ref.codes, 8)
        queries = packed[:20]
        many = idx.lookup_many(queries)
        for q, hits in zip(queries, many):
            assert (hits == idx.lookup(int(q))).all()


class TestQueryDtype:
    """The search runs in the table's dtype (a mixed-dtype ``searchsorted``
    converts the whole table on every call); a query that dtype cannot hold
    is in no table and must come back "not found", never wrapped."""

    def test_query_beyond_int32_table_finds_nothing(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=3)
        idx = GenomeIndex(ref, k=10)
        assert idx.csr_arrays()[0].dtype == np.int32
        present = rolling_kmers(ref.codes, 10)[0][:8]
        # + 2**32 wraps back onto an indexed k-mer when narrowed to int32.
        for too_wide in (present + (1 << 32), present + (1 << 31), -present - 1):
            hits, qidx = idx.lookup_flat(too_wide)
            assert hits.size == 0 and qidx.size == 0
            assert all(h.size == 0 for h in idx.lookup_many(too_wide))
            assert idx.lookup(int(too_wide[0])).size == 0
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
            unique, offsets, positions = idx.csr_arrays()
            assert unique.tolist() == sorted(kept)
            assert positions.tolist() == [p for kmer in sorted(kept) for p in kept[kmer]]
            assert np.diff(offsets).tolist() == [len(kept[kmer]) for kmer in sorted(kept)]
            assert idx.n_masked_kmers == len(where) - len(kept)

    def test_high_frequency_kmers_dropped(self):
        ref = ref_from("A" * 100 + "ACGTACGTCC")
        idx = GenomeIndex(ref, k=5, max_positions_per_kmer=10)
        from repro.genome.alphabet import encode
        assert idx.lookup(pack_kmer(encode("AAAAA"))).size == 0
        assert idx.n_masked_kmers >= 1

    def test_none_keeps_everything(self):
        ref = ref_from("A" * 50)
        idx = GenomeIndex(ref, k=5, max_positions_per_kmer=None)
        from repro.genome.alphabet import encode
        assert idx.lookup(pack_kmer(encode("AAAAA"))).size == 46
        assert idx.n_masked_kmers == 0


class TestLongSeedTable:
    def test_long_table_positions_findable(self):
        ref, _ = simulate_genome(GenomeSpec(length=3000, n_repeats=0), seed=5)
        idx = GenomeIndex(ref, k=10, seed_len=20)
        assert idx.seed_width == 20 and idx.seed_len == 20
        packed, valid = rolling_kmers(ref.codes, 20)
        queries = np.nonzero(valid)[0][:25]
        hits, qidx = idx.lookup_seeds_flat(packed[queries])
        for i, qp in enumerate(queries):
            assert qp in hits[qidx == i]

    def test_no_long_table_falls_back_to_base(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=6)
        idx = GenomeIndex(ref, k=10)
        assert idx.seed_width == 10 and idx.seed_len is None
        packed, _ = rolling_kmers(ref.codes, 10)
        base = idx.lookup_flat(packed[:10])
        seeds = idx.lookup_seeds_flat(packed[:10])
        assert (base[0] == seeds[0]).all() and (base[1] == seeds[1]).all()
        with pytest.raises(IndexError_):
            idx.long_csr_arrays()

    def test_seed_len_validation(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=6)
        with pytest.raises(IndexError_):
            GenomeIndex(ref, k=10, seed_len=10)  # must exceed k
        with pytest.raises(IndexError_):
            GenomeIndex(ref, k=10, seed_len=32)  # past MAX_K
        with pytest.raises(IndexError_):
            GenomeIndex(ref_from("ACGTACGTACGTACG"), k=10, seed_len=20)

    def test_from_arrays_roundtrip_with_long_table(self):
        ref, _ = simulate_genome(GenomeSpec(length=2500, n_repeats=0), seed=7)
        built = GenomeIndex(ref, k=10, seed_len=20)
        k1, o1, p1 = built.csr_arrays()
        l1, lo1, lp1 = built.long_csr_arrays()
        attached = GenomeIndex.from_arrays(
            ref, 10, k1, o1, p1,
            seed_len=20, long_kmers=l1, long_offsets=lo1, long_positions=lp1,
        )
        packed, valid = rolling_kmers(ref.codes, 20)
        q = packed[np.nonzero(valid)[0][:30]]
        a = built.lookup_seeds_flat(q)
        b = attached.lookup_seeds_flat(q)
        assert (a[0] == b[0]).all() and (a[1] == b[1]).all()
        assert attached.nbytes() == built.nbytes()

    def test_from_arrays_incomplete_long_triple_rejected(self):
        ref, _ = simulate_genome(GenomeSpec(length=2500, n_repeats=0), seed=7)
        built = GenomeIndex(ref, k=10, seed_len=20)
        k1, o1, p1 = built.csr_arrays()
        l1, lo1, lp1 = built.long_csr_arrays()
        with pytest.raises(IndexError_):
            GenomeIndex.from_arrays(ref, 10, k1, o1, p1, seed_len=20,
                                    long_kmers=l1, long_offsets=lo1)
        with pytest.raises(IndexError_):
            GenomeIndex.from_arrays(ref, 10, k1, o1, p1, long_kmers=l1,
                                    long_offsets=lo1, long_positions=lp1)

    def test_long_table_masks_repeats_too(self):
        ref = ref_from("A" * 200 + "ACGTACGTCCGGATTACAGGAGTC")
        idx = GenomeIndex(ref, k=5, seed_len=21, max_positions_per_kmer=10)
        assert idx.n_masked_long_kmers >= 1

    def test_nbytes_includes_long_table(self):
        ref, _ = simulate_genome(GenomeSpec(length=2000, n_repeats=0), seed=8)
        base = GenomeIndex(ref, k=10).nbytes()
        both = GenomeIndex(ref, k=10, seed_len=20).nbytes()
        assert both > base


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
