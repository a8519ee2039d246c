"""Tests for seed clustering into candidate regions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.genome.alphabet import reverse_complement
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.index.seeding import (
    MAX_CANDIDATES,
    CandidateRegion,
    Seeder,
    SeedBlock,
    SeederConfig,
    _cluster_runs,
    best_candidates,
)
from repro.observability import scope
from repro.simulate.genome_sim import GenomeSpec, simulate_genome


def cluster_diagonals(udiags, votes, slack):
    """One sequence's sorted unique diagonals through the block clustering
    seeding runs: ``(representative, total_votes)`` pairs, ascending."""
    reps, totals = _cluster_runs(
        np.asarray(udiags, dtype=np.int64), np.asarray(votes, dtype=np.int64), slack
    )
    return list(zip(reps.tolist(), totals.tolist()))


def many_copies_genome():
    """A random 20 kbp genome whose bases 100..180 recur in
    ``MAX_CANDIDATES + 4`` further non-overlapping copies."""
    codes = np.random.default_rng(4).integers(0, 4, 20_000).astype(np.uint8)
    for copy in range(MAX_CANDIDATES + 4):
        at = 1000 + 900 * copy
        codes[at : at + 80] = codes[100:180]
    return Reference(codes, name="copies")


def make_setup(length=5000, seed=0, n_repeats=0, **idx_kw):
    ref, repeats = simulate_genome(
        GenomeSpec(length=length, n_repeats=n_repeats,
                   repeat_length=300 if n_repeats else 0,
                   repeat_divergence=0.0),
        seed=seed,
    )
    index = GenomeIndex(ref, k=10, **idx_kw)
    return ref, repeats, Seeder(index)


def perfect_read(ref, pos, length=62, name="r"):
    return Read(
        name=name,
        codes=ref.codes[pos : pos + length].copy(),
        quals=np.full(length, 40, dtype=np.uint8),
    )


class TestSeederConfig:
    def test_validation(self):
        with pytest.raises(IndexError_):
            SeederConfig(diagonal_slack=-1)


class TestCandidateRegion:
    def test_validation(self):
        with pytest.raises(IndexError_):
            CandidateRegion(start=0, strand=2, support=1)
        with pytest.raises(IndexError_):
            CandidateRegion(start=0, strand=1, support=0)


class TestForwardSeeding:
    def test_perfect_read_found_at_true_position(self):
        ref, _, seeder = make_setup()
        for pos in (0, 1234, 4000):
            cands = seeder.candidates(perfect_read(ref, pos))
            assert cands, pos
            best = cands[0]
            assert best.strand == 1
            assert best.start == pos

    def test_read_with_errors_still_found(self):
        ref, _, seeder = make_setup(seed=1)
        read = perfect_read(ref, 2000)
        read.codes[10] = (read.codes[10] + 1) % 4
        read.codes[40] = (read.codes[40] + 2) % 4
        cands = seeder.candidates(read)
        assert any(c.start == 2000 and c.strand == 1 for c in cands)

    def test_random_read_unmapped(self):
        ref, _, seeder = make_setup(seed=2)
        rng = np.random.default_rng(99)
        read = Read(
            "rand",
            rng.integers(0, 4, 62).astype(np.uint8),
            np.full(62, 40, dtype=np.uint8),
        )
        cands = seeder.candidates(read)
        # a random 62-mer should hit nothing (or only weak accidents)
        assert all(c.support <= 3 for c in cands)

    def test_short_read_yields_nothing(self):
        ref, _, seeder = make_setup()
        read = Read("s", ref.codes[:5].copy(), np.full(5, 40, dtype=np.uint8))
        assert seeder.candidates(read) == []


class TestReverseSeeding:
    def test_rc_read_found_on_minus_strand(self):
        ref, _, seeder = make_setup(seed=3)
        pos = 1500
        template = ref.codes[pos : pos + 62]
        read = Read("rc", reverse_complement(template),
                    np.full(62, 40, dtype=np.uint8))
        cands = seeder.candidates(read)
        assert cands
        best = cands[0]
        assert best.strand == -1
        assert best.start == pos


class TestRepeats:
    def test_repeat_read_reports_both_copies(self):
        ref, repeats, seeder = make_setup(length=20_000, seed=4, n_repeats=1)
        rep = repeats[0]
        pos = rep.src_start + 50
        cands = seeder.candidates(perfect_read(ref, pos))
        starts = {c.start for c in cands if c.strand == 1}
        assert pos in starts
        assert rep.copy_start + 50 in starts

    def test_max_candidates_cap(self):
        ref = many_copies_genome()
        cands = Seeder(GenomeIndex(ref, k=10)).candidates(perfect_read(ref, 100))
        assert len(cands) == MAX_CANDIDATES


@st.composite
def split_candidate_tables(draw):
    """A candidate block of a few reads (one row per (read, strand,
    diagonal), supports tied often) and segment boundaries on ``start``."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_reads = draw(st.integers(1, 4))
    n = draw(st.integers(0, 6 * MAX_CANDIDATES))
    diagonal = rng.permutation(2000)[:n] - 30
    block = SeedBlock(
        rng.integers(0, n_reads, n), np.clip(diagonal, -20, 1900),
        rng.choice([-1, 1], n), rng.integers(2, 5, n), diagonal,
    )
    cuts = np.sort(rng.integers(-20, 1900, draw(st.integers(0, 5))))
    return block, n_reads, cuts


class TestBestCandidates:
    @settings(max_examples=80, deadline=None)
    @given(split_candidate_tables())
    def test_per_segment_cut_loses_nothing(self, case):
        """A segment's best candidates hold its share of the global best, so
        cutting each segment first and then the survivors gives the global
        cut, rows and order alike."""
        block, n_reads, cuts = case
        segment = np.searchsorted(cuts, block.start, side="right")
        parts = [block[segment == seg] for seg in np.unique(segment).tolist()]
        survivors = SeedBlock.concat(
            [block[:0], *(part[best_candidates(part, n_reads)] for part in parts)]
        )
        want = block[best_candidates(block, n_reads)]
        got = survivors[best_candidates(survivors, n_reads)]
        for key, column in vars(want).items():
            np.testing.assert_array_equal(vars(got)[key], column)


class TestDiagonalClustering:
    def test_read_with_deletion_one_cluster(self):
        # Delete 2 bases from the middle of the template: hits fall on two
        # nearby diagonals which must merge into one candidate.
        ref, _, seeder = make_setup(seed=5)
        pos = 3000
        template = ref.codes[pos : pos + 64]
        codes = np.concatenate([template[:30], template[32:]])
        read = Read("del", codes, np.full(62, 40, dtype=np.uint8))
        cands = [c for c in seeder.candidates(read) if c.strand == 1]
        near = [c for c in cands if abs(c.start - pos) <= 3]
        assert len(near) == 1

    def test_candidates_sorted_by_support(self):
        ref, _, seeder = make_setup(length=20_000, seed=7, n_repeats=2)
        read = perfect_read(ref, 500)
        cands = seeder.candidates(read)
        supports = [c.support for c in cands]
        assert supports == sorted(supports, reverse=True)


def chained_hit_genome(read_codes, k=10, diag_step=3, n_pieces=5, gap_base=0):
    """A genome where ``read_codes`` seeds hits on a *chain* of diagonals
    ``0, diag_step, 2*diag_step, ...`` — each within slack of the previous
    but the chain far wider than slack.  Piece ``i`` of the read (one k-mer
    at offset ``i*k``) is planted at genome position ``i*k + i*diag_step``;
    the filler base repeats so its k-mers are masked out of the index by
    ``max_positions_per_kmer``."""
    length = n_pieces * k + n_pieces * diag_step + 200
    genome = np.full(length, gap_base, dtype=np.uint8)
    for i in range(n_pieces):
        r = i * k
        g = r + i * diag_step
        genome[g : g + k] = read_codes[r : r + k]
    return Reference(genome, name="chain")


class TestBoundedClustering:
    """Regression: transitive slack-chaining must not collapse a wide
    diagonal chain into one cluster (mis-centred band, inflated support)."""

    def _chain_read(self, seed=11, k=10, n_pieces=5):
        rng = np.random.default_rng(seed)
        # Piece-wise random read with no base repeated 3x in a row, so the
        # poly-A filler never matches read k-mers.
        codes = (1 + rng.integers(0, 3, n_pieces * k + 12)).astype(np.uint8)
        return Read(
            "chain", codes, np.full(codes.size, 40, dtype=np.uint8)
        )

    def test_chained_diagonals_do_not_merge(self):
        # Diagonals 0, 3, 6, 9, 12 each get one distinct k-mer vote; slack=3
        # chains them pairwise.  The old transitive clustering collapsed all
        # five into ONE candidate with support 5 spanning 12 diagonals; the
        # bounded clustering must cap every cluster's support at what lies
        # within +-slack of its representative (here: 2).
        k, n_pieces, slack = 10, 5, 3
        read = self._chain_read(k=k, n_pieces=n_pieces)
        ref = chained_hit_genome(read.codes, k=k, diag_step=slack,
                                 n_pieces=n_pieces)
        index = GenomeIndex(ref, k=k, max_positions_per_kmer=4)
        seeder = Seeder(index, SeederConfig(diagonal_slack=slack))
        fwd = [c for c in seeder.candidates(read) if c.strand == 1]
        assert fwd, "chain hits vanished entirely"
        assert max(c.support for c in fwd) <= 2, (
            f"transitive merge: supports {[c.support for c in fwd]}"
        )
        # Every emitted candidate's diagonal is one of the planted ones.
        planted = {i * slack for i in range(n_pieces)}
        assert {c.band_diagonal for c in fwd} <= planted

    def test_cluster_diagonals_unit(self):
        diags = np.array([0, 3, 6, 9, 12])
        votes = np.array([1, 1, 1, 1, 1])
        out = sorted(cluster_diagonals(diags, votes, slack=3))
        # First-max representative peels [0,3], then [6,9], then [12].
        assert out == [(0, 2), (6, 2), (12, 1)]

    def test_cluster_diagonals_narrow_run_unchanged(self):
        # A run no wider than slack behaves exactly like the old clustering:
        # one cluster, highest-vote representative, votes summed.
        diags = np.array([100, 101, 103])
        votes = np.array([2, 5, 1])
        assert cluster_diagonals(diags, votes, slack=3) == [(101, 8)]

    def test_cluster_diagonals_gap_splits(self):
        diags = np.array([0, 2, 50])
        votes = np.array([3, 1, 4])
        assert sorted(cluster_diagonals(diags, votes, slack=3)) == [
            (0, 4),
            (50, 4),
        ]

    def test_votes_conserved(self):
        rng = np.random.default_rng(7)
        diags = np.unique(rng.integers(0, 60, 30))
        votes = rng.integers(1, 5, diags.size)
        out = cluster_diagonals(diags, votes, slack=3)
        assert sum(v for _, v in out) == int(votes.sum())
        for rep, _ in out:
            assert rep in diags


class TestLongSeeds:
    def test_long_seed_candidates_match_base(self):
        ref = simulate_genome(GenomeSpec(length=5000), seed=8)[0]
        index = GenomeIndex(ref, k=10, seed_len=20)
        seeder = Seeder(index, SeederConfig(seed_len=20))
        for pos in (0, 2000, 4938):
            cands = seeder.candidates(perfect_read(ref, pos))
            assert cands and cands[0].start == pos

    def test_long_seeds_prune_short_spurious_matches(self):
        # Plant a 12-base fragment of the read elsewhere: 10-mer seeding
        # sees a spurious diagonal there, 20-mer seeding cannot.
        ref = simulate_genome(GenomeSpec(length=5000), seed=9)[0]
        codes = np.asarray(ref.codes).copy()
        codes[4000:4012] = codes[1000:1012]
        ref2 = Reference(codes, name="planted")
        read = perfect_read(ref2, 1000)
        base = Seeder(GenomeIndex(ref2, k=10))
        longs = Seeder(GenomeIndex(ref2, k=10, seed_len=20), SeederConfig(seed_len=20))
        base_starts = {c.start for c in base.candidates(read)}
        long_starts = {c.start for c in longs.candidates(read)}
        assert 4000 in base_starts
        assert 4000 not in long_starts
        assert 1000 in long_starts

    def test_read_shorter_than_seed_len_unmapped(self):
        ref = simulate_genome(GenomeSpec(length=5000), seed=8)[0]
        seeder = Seeder(
            GenomeIndex(ref, k=10, seed_len=20), SeederConfig(seed_len=20)
        )
        read = perfect_read(ref, 100, length=15)
        assert seeder.candidates(read) == []


class TestQgramFilter:
    def _seeder(self, ref, **kw):
        cfg = SeederConfig(qgram_filter=True, **kw)
        return Seeder(GenomeIndex(ref, k=10), cfg)

    def test_true_location_survives_default_threshold(self):
        ref = simulate_genome(GenomeSpec(length=5000), seed=10)[0]
        seeder = self._seeder(ref)
        for pos in (0, 2500, 4938):
            read = perfect_read(ref, pos)
            read.codes[5] = (read.codes[5] + 1) % 4
            read.codes[33] = (read.codes[33] + 2) % 4
            cands = seeder.candidates(read)
            assert any(c.start == pos and c.strand == 1 for c in cands), pos

    def test_spurious_low_agreement_candidate_dropped(self):
        # A 12-base planted fragment gives a support-2+ diagonal whose
        # window shares almost no other q-grams with the read — filtration
        # must drop it while keeping the true location.
        ref = simulate_genome(GenomeSpec(length=5000), seed=12)[0]
        codes = np.asarray(ref.codes).copy()
        codes[4000:4013] = codes[1000:1013]
        ref2 = Reference(codes, name="planted")
        read = perfect_read(ref2, 1000)
        unfiltered = Seeder(GenomeIndex(ref2, k=10))
        filtered = Seeder(GenomeIndex(ref2, k=10), SeederConfig(qgram_filter=True))
        assert 4000 in {c.start for c in unfiltered.candidates(read)}
        f_starts = {c.start for c in filtered.candidates(read)}
        assert 4000 not in f_starts
        assert 1000 in f_starts

    def test_filtered_counter_emitted(self):
        ref = simulate_genome(GenomeSpec(length=5000), seed=12)[0]
        codes = np.asarray(ref.codes).copy()
        codes[4000:4013] = codes[1000:1013]
        ref2 = Reference(codes, name="planted")
        read = perfect_read(ref2, 1000)
        seeder = Seeder(GenomeIndex(ref2, k=10), SeederConfig(qgram_filter=True))
        with scope() as reg:
            seeder.candidates(read)
            assert reg.snapshot().counters.get("seed.filtered", 0) >= 1

    def test_threshold_zero_keeps_everything(self):
        ref = simulate_genome(GenomeSpec(length=5000), seed=13)[0]
        read = perfect_read(ref, 700)
        plain = Seeder(GenomeIndex(ref, k=10))
        loose = Seeder(
            GenomeIndex(ref, k=10),
            SeederConfig(qgram_filter=True, filter_threshold=0.0),
        )
        assert [
            (c.start, c.strand, c.support) for c in plain.candidates(read)
        ] == [(c.start, c.strand, c.support) for c in loose.candidates(read)]

    def test_edge_overhanging_true_candidate_survives(self):
        # Reads overhanging either genome edge keep their (clamped-window)
        # true candidate: the window slice must clamp, not wrap.
        ref = simulate_genome(GenomeSpec(length=5000), seed=14)[0]
        seeder = self._seeder(ref)
        left = Read(
            "left",
            np.concatenate(
                [np.asarray([0, 1, 2, 3] * 5, dtype=np.uint8),
                 np.asarray(ref.codes[:42])]
            ),
            np.full(62, 40, dtype=np.uint8),
        )
        cands = seeder.candidates(left)
        assert any(c.band_diagonal == -20 and c.strand == 1 for c in cands)
        right = Read(
            "right",
            np.concatenate(
                [np.asarray(ref.codes[-42:]),
                 np.asarray([0, 1, 2, 3] * 5, dtype=np.uint8)]
            ),
            np.full(62, 40, dtype=np.uint8),
        )
        cands = seeder.candidates(right)
        assert any(c.band_diagonal == 5000 - 42 and c.strand == 1 for c in cands)


class TestSeedMetrics:
    def test_candidates_counted_pre_truncation(self):
        # With a segment in more copies than MAX_CANDIDATES, seed.candidates
        # must report everything found and candidates_dropped the excess.
        ref = many_copies_genome()
        seeder = Seeder(GenomeIndex(ref, k=10))
        with scope() as reg:
            cands = seeder.candidates(perfect_read(ref, 100))
            snap = reg.snapshot()
        assert len(cands) == MAX_CANDIDATES
        found = snap.counters["seed.candidates"]
        assert found >= MAX_CANDIDATES + 4  # every copy
        assert snap.counters["seed.candidates_dropped"] == found - MAX_CANDIDATES

    def test_candidates_per_read_histogram(self):
        ref, _, seeder = make_setup(seed=2)
        with scope() as reg:
            seeder.candidates(perfect_read(ref, 1000))
            snap = reg.snapshot()
        hist = snap.histograms.get("seed.candidates_per_read")
        assert hist is not None and hist["count"] == 1
