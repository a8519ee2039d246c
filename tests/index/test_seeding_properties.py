"""Property tests: filtration never silently loses true candidates.

The contract satellite to the q-gram filter: for reads simulated with
planted SNPs and small indels *within the error model* (a handful of
substitutions, indels no longer than the seeder's diagonal slack), any
true-diagonal candidate that plain seeding finds must also survive the
filtration pass at the default threshold.  Filtration may only remove
candidates — and must not remove these.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import IndexError_
from repro.genome.alphabet import reverse_complement
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.index.hashindex import GenomeIndex
from repro.index.kmer import rolling_kmers
from repro.index.seeding import (
    MAX_CANDIDATES,
    MIN_SUPPORT,
    QGRAM_Q,
    CandidateRegion,
    Seeder,
    SeederConfig,
)
from repro.observability import current as metrics
from repro.observability import scope
from tests.index import reference_filter

GENOME_LEN = 4000
READ_LEN = 62
#: Error budget "within the error model": the Illumina profile averages
#: ~1% substitutions per base (≈0.6 per 62 bp read); 4 is already a
#: generous tail, and indels beyond the diagonal slack wouldn't cluster.
MAX_SUBS = 4
MAX_INDEL = 3

_rng = np.random.default_rng(20120609)
_GENOME = Reference(
    _rng.integers(0, 4, GENOME_LEN).astype(np.uint8), name="prop"
)
_INDEX = GenomeIndex(_GENOME, k=10)
_PLAIN = Seeder(_INDEX, SeederConfig())
_FILTERED = Seeder(_INDEX, SeederConfig(qgram_filter=True))


class _PerReadSeeder:
    """Oracle: seeding as this repository ran it before ``candidates_batch``
    — one read at a time, one strand at a time, a Python chain scan over
    the unique diagonals and a per-cluster filtration loop.  Frozen here;
    ``src/`` holds only the block algorithm."""

    def __init__(self, index, config):
        self.index = index
        self.config = config

    def candidates(self, read):
        out = []
        out.extend(self._one_strand(read.codes, strand=1))
        out.extend(self._one_strand(reverse_complement(read.codes), strand=-1))
        out.sort(key=lambda c: (-c.support, c.start, c.strand))
        n_found = len(out)
        out = out[:MAX_CANDIDATES]
        reg = metrics()
        reg.inc("seed.reads")
        reg.inc("seed.candidates", n_found)
        if n_found > len(out):
            reg.inc("seed.candidates_dropped", n_found - len(out))
        reg.observe("seed.candidates_per_read", float(len(out)))
        return out

    def _one_strand(self, codes, strand):
        width = self.index.seed_width
        packed, valid = rolling_kmers(codes, width)
        if packed.size == 0:
            return []
        cfg = self.config
        offsets = np.flatnonzero(valid)
        if offsets.size == 0:
            return []
        hit_pos, qidx = self.index.lookup_seeds_flat(packed[offsets])
        if hit_pos.size == 0:
            return []
        offs = offsets[qidx]
        diags = hit_pos - offs
        span = int(codes.size)
        keys = np.unique(diags * span + offs)
        udiags, votes = np.unique(keys // span, return_counts=True)
        clusters = self._cluster_diagonals(udiags, votes, cfg.diagonal_slack)
        clusters.sort()
        m = int(codes.size)
        glen = len(self.index.reference)
        survivors = [(rep, tv) for rep, tv in clusters if tv >= MIN_SUPPORT]
        if cfg.qgram_filter and survivors:
            survivors = self._qgram_filter(codes, survivors, glen)
        return [
            CandidateRegion(
                start=min(max(rep, -(m - 1)), glen - 1),
                strand=strand,
                support=total_votes,
                diagonal=rep,
            )
            for rep, total_votes in survivors
        ]

    def _cluster_diagonals(self, udiags, votes, slack):
        out = []
        run_start = 0
        for i in range(1, udiags.size):
            if int(udiags[i]) - int(udiags[i - 1]) > slack:
                self._split_run(udiags[run_start:i], votes[run_start:i], slack, out)
                run_start = i
        self._split_run(udiags[run_start:], votes[run_start:], slack, out)
        return out

    def _split_run(self, d, v, slack, out):
        while d.size:
            j = int(np.argmax(v))
            rep = int(d[j])
            in_band = (d >= rep - slack) & (d <= rep + slack)
            out.append((rep, int(v[in_band].sum())))
            left = d < rep - slack
            if left.any():
                self._split_run(d[left], v[left], slack, out)
            right = d > rep + slack
            d, v = d[right], v[right]

    def _qgram_filter(self, codes, clusters, glen):
        cfg = self.config
        q = QGRAM_Q
        m = int(codes.size)
        if m < q:
            return clusters
        packed, valid = rolling_kmers(codes, q)
        read_q = np.unique(packed[valid])
        if read_q.size == 0:
            return clusters
        ref_codes = self.index.reference.codes
        reg = metrics()
        kept = []
        for rep, total_votes in clusters:
            lo = max(0, rep - cfg.diagonal_slack)
            hi = min(glen, rep + m + cfg.diagonal_slack)
            window = ref_codes[lo:hi]
            n_window_q = int(window.size) - q + 1
            if n_window_q <= 0:
                reg.inc("seed.filtered")
                continue
            wq_packed, wq_valid = rolling_kmers(window, q)
            window_q = np.unique(wq_packed[wq_valid])
            matches = int(np.isin(read_q, window_q, assume_unique=True).sum())
            capacity = min(int(read_q.size), n_window_q)
            needed = max(1, math.ceil(cfg.filter_threshold * capacity))
            if matches >= needed:
                kept.append((rep, total_votes))
            else:
                reg.inc("seed.filtered")
        return kept


def _true_hits(cands, pos, slack=3):
    return {
        (c.band_diagonal, c.strand)
        for c in cands
        if c.strand == 1 and abs(c.band_diagonal - pos) <= slack
    }


@st.composite
def corrupted_read(draw):
    pos = draw(st.integers(0, GENOME_LEN - READ_LEN))
    template = np.asarray(_GENOME.codes[pos : pos + READ_LEN]).copy()
    # Planted substitutions (SNP-like mismatches against the reference).
    n_subs = draw(st.integers(0, MAX_SUBS))
    sub_sites = draw(
        st.lists(
            st.integers(0, READ_LEN - 1),
            min_size=n_subs,
            max_size=n_subs,
            unique=True,
        )
    )
    for s in sub_sites:
        template[s] = (template[s] + draw(st.integers(1, 3))) % 4
    # One small indel within the diagonal slack (0 = none).
    indel = draw(st.integers(-MAX_INDEL, MAX_INDEL))
    if indel > 0:  # insertion: novel bases enter the read
        at = draw(st.integers(0, READ_LEN - 1))
        ins = np.asarray(
            draw(
                st.lists(
                    st.integers(0, 3), min_size=indel, max_size=indel
                )
            ),
            dtype=np.uint8,
        )
        template = np.concatenate([template[:at], ins, template[at:]])[:READ_LEN]
    elif indel < 0:  # deletion: read continues further along the genome
        at = draw(st.integers(0, READ_LEN - 1))
        tail = np.asarray(
            _GENOME.codes[pos + READ_LEN : pos + READ_LEN - indel]
        )
        template = np.concatenate([template[:at], template[at - indel :], tail])
        template = template[:READ_LEN]
    read = Read(
        name="prop",
        codes=template.astype(np.uint8),
        quals=np.full(template.size, 40, dtype=np.uint8),
        true_pos=pos,
    )
    return read


@settings(max_examples=150, deadline=None)
@given(read=corrupted_read())
def test_filtration_preserves_true_candidates(read):
    plain_true = _true_hits(_PLAIN.candidates(read), read.true_pos)
    filtered_true = _true_hits(_FILTERED.candidates(read), read.true_pos)
    # Whatever true-diagonal candidates plain seeding finds, filtration
    # at the default threshold must keep (no silent recall loss).
    assert plain_true.issubset(filtered_true), (
        f"filtration dropped true candidates: {plain_true - filtered_true}"
    )


@settings(max_examples=60, deadline=None)
@given(read=corrupted_read())
def test_filtration_only_removes(read):
    plain = {
        (c.band_diagonal, c.strand, c.support)
        for c in _PLAIN.candidates(read)
    }
    filtered = {
        (c.band_diagonal, c.strand, c.support)
        for c in _FILTERED.candidates(read)
    }
    assert filtered.issubset(plain)


@settings(max_examples=100, deadline=None)
@given(
    read=corrupted_read(),
    threshold=st.sampled_from([0.0, 0.1, 0.5, 0.9, 1.0]),
)
def test_vectorized_filter_matches_scalar_oracle(read, threshold):
    """The vectorised filtration pass is decision-identical to the
    per-cluster loop: same survivors, same order, same support, at every
    threshold (including the degenerate 0.0 and 1.0 ends)."""
    cfg = SeederConfig(qgram_filter=True, filter_threshold=threshold)
    fast = Seeder(_INDEX, cfg)
    oracle = _PerReadSeeder(_INDEX, cfg)
    assert fast.candidates(read) == oracle.candidates(read)


def test_vectorized_filter_matches_scalar_on_edge_overhangs():
    """Edge-overhanging candidates (clamped windows, unmeasurable windows)
    filter identically under the vectorised pass and the scalar oracle."""
    cfg = SeederConfig(qgram_filter=True)
    fast = Seeder(_INDEX, cfg)
    oracle = _PerReadSeeder(_INDEX, cfg)
    for pos in (0, 1, GENOME_LEN - READ_LEN, GENOME_LEN - READ_LEN - 1):
        codes = np.asarray(_GENOME.codes[pos : pos + READ_LEN]).copy()
        # Hand-built clusters spanning on-genome, clamped, and off-genome
        # diagonals exercise both the capacity scaling and the
        # unmeasurable-window drop.
        clusters = [
            (-READ_LEN + 2, 2),
            (-5, 2),
            (pos, 5),
            (GENOME_LEN - 10, 2),
            (GENOME_LEN - 2, 2),
        ]
        keep = fast._qgram_keep(
            codes,
            np.array([READ_LEN]),
            np.zeros(len(clusters), dtype=np.int64),
            np.array([rep for rep, _ in clusters]),
        )
        assert [c for c, ok in zip(clusters, keep) if ok] == (
            oracle._qgram_filter(codes, list(clusters), GENOME_LEN)
        )


# -- block seeding == per-read seeding ----------------------------------------

#: A second genome for the block property: a 150 bp segment occurs twice,
#: so reads drawn from it carry several candidates.
_rng2 = np.random.default_rng(20260115)
_REPEAT_CODES = _rng2.integers(0, 4, 3000).astype(np.uint8)
_REPEAT_CODES[2000:2150] = _REPEAT_CODES[400:550]
_REPEAT_GENOME = Reference(_REPEAT_CODES, name="block")
_BLOCK_INDEXES = {
    None: GenomeIndex(_REPEAT_GENOME, k=10),
    20: GenomeIndex(_REPEAT_GENOME, k=10, seed_len=20),
}


def _read(codes, name="r"):
    codes = np.asarray(codes, dtype=np.uint8)
    return Read(name, codes, np.full(codes.size, 40, dtype=np.uint8))


@st.composite
def hostile_read(draw):
    """One read of a mixed block: genome-derived of any length (including
    shorter than the seed width and than ``QGRAM_Q``), possibly
    reverse-complemented, substituted, N-ridden, all N, random, or hanging
    off either genome end."""
    glen = len(_REPEAT_GENOME)
    kind = draw(st.sampled_from(
        ["genome", "genome", "repeat", "left_edge", "right_edge", "random", "all_n"]
    ))
    length = draw(st.sampled_from([1, 3, 7, 12, 19, 24, 40, 62, 75]))
    junk = np.asarray(
        draw(st.lists(st.integers(0, 3), min_size=length, max_size=length)),
        dtype=np.uint8,
    )
    if kind == "all_n":
        return _read(np.full(length, 4))
    if kind == "random":
        return _read(junk)
    if kind == "left_edge":  # first bases random, the rest is genome[0:...]
        over = draw(st.integers(0, length))
        codes = np.concatenate([junk[:over], _REPEAT_CODES[: length - over]])
    elif kind == "right_edge":  # genome tail, then random bases past the end
        over = draw(st.integers(0, length))
        codes = np.concatenate([_REPEAT_CODES[glen - (length - over) :], junk[:over]])
    else:
        lo, hi = (400, 550 - length) if kind == "repeat" else (0, glen - length)
        pos = draw(st.integers(lo, max(lo, hi)))
        codes = _REPEAT_CODES[pos : pos + length].copy()
    codes = codes.copy()
    for site in draw(st.lists(st.integers(0, length - 1), max_size=3)):
        codes[site] = (codes[site] + 1) % 4
    if draw(st.booleans()):  # an N-run, straddling k-mers
        at = draw(st.integers(0, length - 1))
        codes[at : at + draw(st.integers(1, 4))] = 4
    if draw(st.booleans()):
        codes = reverse_complement(codes)
    return _read(codes)


def _seed_metrics(registry):
    snap = registry.snapshot()
    counters = {k: v for k, v in snap.counters.items() if k.startswith("seed.")}
    return counters, snap.histograms.get("seed.candidates_per_read")


@settings(max_examples=120, deadline=None)
@given(
    reads=st.lists(hostile_read(), max_size=12),
    seed_len=st.sampled_from([None, 20]),
    qgram_filter=st.booleans(),
    split=st.integers(0, 12),
)
def test_block_seeding_equals_per_read_seeding(reads, seed_len, qgram_filter, split):
    """``candidates_batch(reads)[i] == candidates_batch([reads[i]])[0]`` ==
    the frozen per-read oracle, with equal ``seed.*`` counters and
    ``seed.candidates_per_read`` histogram, however the block is split."""
    cfg = SeederConfig(seed_len=seed_len, qgram_filter=qgram_filter)
    index = _BLOCK_INDEXES[seed_len]
    seeder = Seeder(index, cfg)
    oracle = _PerReadSeeder(index, cfg)
    with scope() as block_reg:
        block = seeder.candidates_batch(reads)
    with scope() as single_reg:
        singles = [seeder.candidates_batch([read])[0] for read in reads]
    with scope() as split_reg:
        halves = seeder.candidates_batch(reads[:split]) + seeder.candidates_batch(
            reads[split:]
        )
    with scope() as oracle_reg:
        expected = [oracle.candidates(read) for read in reads]
    assert block == singles == halves == expected
    if reads:
        assert (
            _seed_metrics(block_reg)
            == _seed_metrics(single_reg)
            == _seed_metrics(split_reg)
            == _seed_metrics(oracle_reg)
        )
    else:
        assert block == [] and _seed_metrics(block_reg) == ({}, None)


def test_candidates_clamped_at_both_genome_ends_in_one_block():
    """Overhanging reads at either end keep their off-genome diagonal and a
    clamped-in-range start, and seed the same in a block as alone."""
    glen = len(_REPEAT_GENOME)
    rng = np.random.default_rng(3)
    left = _read(np.concatenate([rng.integers(0, 4, 20), _REPEAT_CODES[:42]]))
    right = _read(np.concatenate([_REPEAT_CODES[glen - 42 :], rng.integers(0, 4, 20)]))
    seeder = Seeder(_BLOCK_INDEXES[None], SeederConfig(qgram_filter=True))
    got_left, got_right = seeder.candidates_batch([left, right])
    assert (got_left[0].diagonal, got_left[0].start, got_left[0].strand) == (-20, -20, 1)
    assert (got_right[0].diagonal, got_right[0].strand) == (glen - 42, 1)
    assert 0 <= got_right[0].start <= glen - 1
    assert [got_left, got_right] == [seeder.candidates(left), seeder.candidates(right)]


def test_wide_run_fallback_inside_a_block():
    """The planted transitive chain (diagonals 0, 3, 6, 9, 12 at slack 3)
    takes the wide-run path; neighbours in the same block are untouched."""
    k, n_pieces, slack = 10, 5, 3
    rng = np.random.default_rng(11)
    chain = (1 + rng.integers(0, 3, n_pieces * k + 12)).astype(np.uint8)
    genome = np.zeros(n_pieces * (k + slack) + 400, dtype=np.uint8)
    for i in range(n_pieces):  # piece i of the read sits on diagonal i * slack
        genome[i * (k + slack) : i * (k + slack) + k] = chain[i * k : (i + 1) * k]
    genome[150:350] = rng.integers(0, 4, 200)
    ref = Reference(genome, name="chain")
    index = GenomeIndex(ref, k=k, max_positions_per_kmer=4)
    cfg = SeederConfig(diagonal_slack=slack)
    seeder, oracle = Seeder(index, cfg), _PerReadSeeder(index, cfg)
    reads = [_read(genome[160:222]), _read(chain), _read(genome[250:312])]
    block = seeder.candidates_batch(reads)
    assert block == [oracle.candidates(read) for read in reads]
    forward = [c for c in block[1] if c.strand == 1]
    # (12, 1) is one vote short of MIN_SUPPORT.
    assert sorted((c.diagonal, c.support) for c in forward) == [(0, 2), (6, 2)]


def test_kmer_across_a_sequence_junction_is_not_a_seed():
    """Two reads whose concatenation spells a genome 11-mer (two 10-mers,
    enough votes for a candidate) at the junction must not hit it: windows
    never span concatenated sequences."""
    k = 10
    codes = np.asarray(_GENOME.codes)
    target = codes[1000 : 1000 + k + 1]
    other = np.random.default_rng(5).integers(0, 4, 40).astype(np.uint8)
    a = _read(np.concatenate([other[:20], target[:5]]))
    b = _read(np.concatenate([target[5:], other[20:]]))
    seeder = Seeder(_INDEX)
    assert seeder.candidates_batch([a, b]) == [seeder.candidates(a), seeder.candidates(b)]
    for cands in seeder.candidates_batch([a, b]):
        assert all(c.diagonal not in (1000 - 20, 1000 - 5) for c in cands)


def test_block_is_worked_through_in_budget_slices(monkeypatch):
    """A block whose hits exceed the per-pass budget is cut into slices (the
    hit pass is the only one that slices; the filter is one C loop); the
    candidates and metrics do not notice."""
    import repro.index.seeding as seeding

    reads = [_read(_REPEAT_CODES[p : p + 62]) for p in range(380, 560, 9)]
    cfg = SeederConfig(qgram_filter=True)
    seeder = Seeder(_BLOCK_INDEXES[None], cfg)
    with scope() as whole_reg:
        whole = seeder.candidates_batch(reads)
    slices = []
    real = seeding._budget_slices

    def spy(sizes, budget):
        slices.append(real(sizes, budget))
        return slices[-1]

    monkeypatch.setattr(seeding, "_PASS_BUDGET", 100)
    monkeypatch.setattr(seeding, "_budget_slices", spy)
    with scope() as sliced_reg:
        sliced = seeder.candidates_batch(reads)
    assert len(slices) == 1 and len(slices[0]) > 1
    assert sliced == whole
    assert _seed_metrics(sliced_reg) == _seed_metrics(whole_reg)


def test_budget_slices_cover_in_order_and_stay_near_budget():
    from repro.index.seeding import _budget_slices

    sizes = np.random.default_rng(9).integers(0, 50, 200)
    cut = _budget_slices(sizes, 120)
    assert cut[0][0] == 0 and cut[-1][1] == sizes.size
    assert all(a[1] == b[0] for a, b in zip(cut, cut[1:]))
    assert all(sizes[lo:hi].sum() < 120 + sizes[lo:hi].max() for lo, hi in cut)
    assert _budget_slices(sizes, 10**9) == [(0, 200)]
    assert _budget_slices(sizes[:0], 120) == [(0, 0)]


def test_key_headroom_is_checked_with_a_typed_error():
    class _Vast:  # a reference too long for (sequence, diagonal) int64 keys
        codes = _GENOME.codes

        def __len__(self):
            return 1 << 62

    index = GenomeIndex(_GENOME, k=10)
    index.reference = _Vast()
    with pytest.raises(IndexError_, match="overflows"):
        Seeder(index).candidates_batch([_read(np.asarray(_GENOME.codes[:62]))] * 2)


def test_qgram_keep_matches_the_np_unique_spelling(monkeypatch):
    """The C filter decides as the NumPy body it replaced (its hits
    de-duplicated by ``np.unique``) on a decoy-style block: a small target
    followed by a long decoy with planted repeats, so most clusters are
    spurious."""
    rng = np.random.default_rng(24)
    codes = rng.integers(0, 4, 60_000).astype(np.uint8)
    for src, dst in rng.integers(4000, 59_000, (8, 2)):
        codes[dst : dst + 400] = codes[src : src + 400]
    cfg = SeederConfig(qgram_filter=True)
    seeder = Seeder(GenomeIndex(Reference(codes, name="decoy"), k=10), cfg)
    reads = [
        _read(codes[p : p + READ_LEN] if p % 3 else rng.integers(0, 4, READ_LEN))
        for p in rng.integers(0, 4000 - READ_LEN, 200).tolist()
    ]
    calls = []
    keep_fn = seeder._qgram_keep
    monkeypatch.setattr(
        seeder, "_qgram_keep", lambda *a: calls.append(a) or keep_fn(*a)
    )
    seeder.seed(reads)
    (args,) = calls
    fast = keep_fn(*args)
    np.testing.assert_array_equal(
        fast,
        reference_filter.qgram_keep(
            codes, *args, cfg.diagonal_slack, cfg.filter_threshold, QGRAM_Q
        ),
    )
    assert 0 < np.count_nonzero(fast) < fast.size
