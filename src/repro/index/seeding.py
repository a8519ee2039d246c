"""Seed clustering: read seed hits -> candidate mapping regions.

Each seed hit at genome position ``g`` for read offset ``r`` implies the
read would start at diagonal ``g - r``.  Hits are grouped by (strand,
binned diagonal); a group with enough distinct supporting seeds becomes a
:class:`CandidateRegion` handed to the Pair-HMM.  Both strands are always
queried.  Seeding works on a *block* of reads at a time
(:meth:`Seeder.seed`): every stage is one pass over the block's
concatenated sequences, keyed by ``(sequence, diagonal)``, and the result is
one :class:`SeedBlock` of parallel arrays.  The passes are NumPy, except the
wide table's key search and the q-gram count, which are C loops
(``lower_bound`` and ``qgram_filter`` in ``repro/phmm/_lanes.c``).

Two upstream-pruning choices shrink the candidate list before any
Pair-HMM runs:

* **Long overlapping seeds** (SNAP): reads are seeded with every
  overlapping ``k``-mer of the index they are given, so a wider index
  (``k=20``) is long seeding.  A 20-mer has ~4\\ :sup:`10` times fewer
  chance genome hits than a 10-mer, so spurious diagonals almost vanish,
  while the read's many overlapping seed offsets preserve error tolerance
  (an error only kills the seeds covering it).
* **q-gram filtration** (PEANUT / QUASAR): with ``qgram_filter`` on, each
  surviving cluster is scored by how many of the read's distinct q-grams
  occur in the implied reference window.  The q-gram lemma says a true
  location with ``e`` errors still shares at least ``m - q + 1 - q*e``
  q-grams with its window, while a random window shares almost none — so
  a fractional threshold separates them cheaply, with plain set
  intersection instead of dynamic programming.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import IndexError_
from repro.genome.alphabet import reverse_complement
from repro.genome.fastq import Read
from repro.index.hashindex import GenomeIndex
from repro.index.kmer import MAX_K, rolling_kmers
from repro.observability import Laps
from repro.observability import current as metrics
from repro.phmm.lanes import LIB


@dataclass(frozen=True)
class CandidateRegion:
    """A putative mapping location for a read.

    Attributes
    ----------
    start:
        Estimated 0-based genome position of the read's first base.  May
        be negative (read overhangs the left genome edge) or up to
        ``glen - 1`` (overhangs the right edge); the alignment window
        builder N-pads the off-genome columns, so these are legitimate
        values, not errors.
    strand:
        +1: the read as given aligns forward; -1: its reverse complement does.
    support:
        Number of distinct read seeds voting for this diagonal cluster.
    diagonal:
        The winning seed diagonal ``g - r`` this candidate came from.
        ``start`` equals this value clipped into the always-some-overlap
        range ``[-(read_len - 1), glen - 1]``; the banded kernels use
        ``diagonal`` to centre their band, so even a clipped candidate
        still bands around the true seed path.  ``None`` on hand-built
        candidates means "centre on ``start``".
    """

    start: int
    strand: int
    support: int
    diagonal: "int | None" = None

    def __post_init__(self) -> None:
        if self.strand not in (-1, 1):
            raise IndexError_(f"strand must be +-1, got {self.strand}")
        if self.support < 1:
            raise IndexError_("candidate support must be >= 1")

    @property
    def band_diagonal(self) -> int:
        """Seed diagonal to centre a band on (falls back to ``start``)."""
        return self.start if self.diagonal is None else self.diagonal


@dataclass(frozen=True)
class SeedBlock:
    """The candidates of a block of reads as parallel int64 arrays.

    One entry per candidate, grouped by read in block order and best first
    within a read; ``read`` is the candidate's read's index in the block and
    the other four are :class:`CandidateRegion`'s fields.  Indexing with a
    slice, mask or index array selects candidates.
    """

    read: np.ndarray
    start: np.ndarray
    strand: np.ndarray
    support: np.ndarray
    diagonal: np.ndarray

    def __len__(self) -> int:
        return int(self.read.size)

    def __getitem__(self, index: "slice | np.ndarray") -> "SeedBlock":
        return SeedBlock(*(column[index] for column in vars(self).values()))

    @staticmethod
    def concat(blocks: "Sequence[SeedBlock]") -> "SeedBlock":
        """``blocks`` end to end (their ``read`` indexes are the caller's)."""
        columns = zip(*(vars(block).values() for block in blocks))
        return SeedBlock(*(np.concatenate(column) for column in columns))


#: The block of no reads.
NO_CANDIDATES = SeedBlock(*(np.empty(0, dtype=np.int64),) * 5)


#: Minimum distinct seed hits on a diagonal cluster to emit a candidate.
MIN_SUPPORT = 2
#: Most candidates kept per read, best-supported first.
MAX_CANDIDATES = 16
#: q-gram width of the filtration pass.
QGRAM_Q = 5


def best_candidates(block: SeedBlock, n_reads: int) -> np.ndarray:
    """Indices of the candidates to keep: each read's (``read`` in
    ``range(n_reads)``) best :data:`MAX_CANDIDATES`, grouped by read and best
    first — most support, then lowest start, strand and diagonal."""
    order = np.lexsort((block.diagonal, block.strand, block.start, -block.support, block.read))
    n_found = np.bincount(block.read, minlength=n_reads)
    rank = np.arange(order.size) - np.repeat(np.cumsum(n_found) - n_found, n_found)
    return order[rank < MAX_CANDIDATES]


@dataclass
class SeederConfig:
    """Seeding knobs.

    Attributes
    ----------
    diagonal_slack:
        Hits within this many bases of the cluster's representative
        diagonal are merged into it (absorbs indels).
    seed_len:
        Index-build width override: ``None`` (default) indexes at
        ``PipelineConfig.k``, a value indexes at that width instead —
        ``seed_len=20`` and ``k=20`` are the same run.  The frozen ledger's
        spelling (:func:`repro.index.hashindex.table_width` is its one
        reader); a :class:`Seeder` queries at whatever width its index has.
    qgram_filter:
        Enable the PEANUT-style q-gram filtration pass (:data:`QGRAM_Q`-grams)
        on clustered candidates (default off — seeding is then
        byte-identical to the historical behaviour).
    filter_threshold:
        Fraction of the read's distinct q-grams that must occur in the
        candidate's reference window for it to survive.  The default 0.5
        tolerates far more errors than the Illumina profile produces
        (a 62 bp read keeps >= 0.5 of its 5-grams through ~5
        substitutions), while random windows share only ~5-10%.
    """

    diagonal_slack: int = 3
    seed_len: "int | None" = None
    qgram_filter: bool = False
    filter_threshold: float = 0.5
    # Not a field: ledger/replay.py is the sole reader of this constant.
    step: ClassVar[int] = 1

    def __post_init__(self) -> None:
        if self.diagonal_slack < 0:
            raise IndexError_("diagonal_slack must be >= 0")
        if self.seed_len is not None and not 2 <= self.seed_len <= MAX_K:
            raise IndexError_(
                f"seed_len must be in [2, {MAX_K}], got {self.seed_len}"
            )
        if not 0.0 <= self.filter_threshold <= 1.0:
            raise IndexError_(
                f"filter_threshold must be in [0, 1], got {self.filter_threshold}"
            )


#: The child spans :meth:`Seeder.seed` records under the open span (``seed``
#: in the pipeline), once per block: k-mer packing and index lookup, diagonal
#: clustering, the q-gram filter (zero seconds when it is off), and ordering
#: with the :data:`MAX_CANDIDATES` cut and the ``seed.*`` metrics.
LAYERS = ("lookup", "cluster", "filter", "rank")

#: Most seed hits one pass materialises, at ~100 bytes of transients each; a
#: block holding more is worked through in slices of sequences.  Cache-sized
#: slices are also the fastest.
_PASS_BUDGET = 1 << 16


def _budget_slices(sizes: np.ndarray, budget: int) -> "list[tuple[int, int]]":
    """Cut ``range(len(sizes))`` into consecutive ``(lo, hi)`` slices whose
    sizes sum to about ``budget`` (at most one item over it)."""
    ends = np.cumsum(sizes)
    if ends.size == 0 or ends[-1] <= budget:
        return [(0, int(sizes.size))]
    cuts = np.flatnonzero(np.diff((ends - sizes) // budget)) + 1
    return list(zip([0, *cuts.tolist()], [*cuts.tolist(), int(sizes.size)]))


def _cluster_runs(
    keys: np.ndarray, votes: np.ndarray, slack: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Bounded-width clusters of sorted distinct ``keys`` carrying ``votes``.

    A *run* is a maximal stretch of keys with no gap wider than ``slack``.
    A run no wider than ``slack`` overall (nearly all of them) is one
    cluster — representative the highest-vote key (first on ties), votes
    the run's sum — found by segment reductions.  A wider run, keys chained
    pairwise within ``slack``, goes through :func:`_split_run` so no cluster
    takes votes from beyond ``slack`` of its representative.  Returns
    ``(representatives, total_votes)``, representatives ascending.
    """
    n = keys.size
    if n == 0:
        return keys, votes
    starts = np.concatenate(([0], np.flatnonzero(np.diff(keys) > slack) + 1))
    ends = np.append(starts[1:], n)
    totals = np.add.reduceat(votes, starts)
    # First highest-vote member of each run: one max over (votes, -index).
    score = votes * n + np.arange(n - 1, -1, -1)
    reps = keys[n - 1 - np.maximum.reduceat(score, starts) % n]
    wide = np.flatnonzero(keys[ends - 1] - keys[starts] > slack)
    if wide.size:
        split: "list[tuple[int, int]]" = []
        for a, b in zip(starts[wide].tolist(), ends[wide].tolist()):
            _split_run(keys[a:b], votes[a:b], slack, split)
        narrow = np.ones(starts.size, dtype=bool)
        narrow[wide] = False
        extra = np.array(split, dtype=np.int64)
        reps = np.concatenate((reps[narrow], extra[:, 0]))
        totals = np.concatenate((totals[narrow], extra[:, 1]))
        order = np.argsort(reps)
        reps, totals = reps[order], totals[order]
    return reps, totals


def _split_run(
    d: np.ndarray, v: np.ndarray, slack: int, out: "list[tuple[int, int]]"
) -> None:
    """Bound one chained run: peel off the best-supported window until done."""
    while d.size:
        j = int(np.argmax(v))  # first max — preserves historical tie-breaking
        rep = int(d[j])
        in_band = (d >= rep - slack) & (d <= rep + slack)
        out.append((rep, int(v[in_band].sum())))
        left = d < rep - slack
        if left.any():
            _split_run(d[left], v[left], slack, out)
        right = d > rep + slack
        d, v = d[right], v[right]


class Seeder:
    """Finds candidate mapping regions for reads against a genome index."""

    def __init__(self, index: GenomeIndex, config: SeederConfig | None = None) -> None:
        self.index = index
        self.config = config or SeederConfig()

    def candidates(self, read: Read) -> list[CandidateRegion]:
        """All candidate regions for ``read``, both strands, best first.

        Reads shorter than the seed width yield no candidates.
        """
        return self.candidates_batch([read])[0]

    def candidates_batch(self, reads: "Sequence[Read]") -> "list[list[CandidateRegion]]":
        """:meth:`candidates` of every read: :meth:`seed` as lists of objects."""
        found = self.seed(reads)
        fields = (found.start, found.strand, found.support, found.diagonal)
        regions = [CandidateRegion(*row) for row in zip(*(f.tolist() for f in fields))]
        bounds = np.cumsum(np.bincount(found.read, minlength=len(reads))).tolist()
        return [regions[a:b] for a, b in zip([0, *bounds[:-1]], bounds)]

    def seed(self, reads: "Sequence[Read]") -> SeedBlock:
        """The candidates of every read, seeded as one block.

        Both strands of all reads are one concatenated code array; k-mer
        packing, index lookup, diagonal votes, clustering, q-gram filter,
        ordering and the :data:`MAX_CANDIDATES` cut are each one pass over
        it.  Candidates and ``seed.*`` metrics do not depend on how
        reads are divided into blocks.
        """
        if not reads:
            return NO_CANDIDATES
        laps = Laps(*LAYERS)
        cfg = self.config
        n = len(reads)
        width = self.index.seed_width
        glen = len(self.index.reference)
        # Sequence s < n is read s as given; sequence 2n-1-s is its reverse
        # complement (the reverse complement of the concatenation).
        forward = np.concatenate([read.codes for read in reads])
        codes = np.concatenate((forward, reverse_complement(forward)))
        lens = np.fromiter(map(len, reads), dtype=np.int64, count=n)
        lens = np.concatenate((lens, lens[::-1]))
        seq_of = np.repeat(np.arange(2 * n), lens)
        offset_of = np.arange(codes.size) - np.repeat(np.cumsum(lens) - lens, lens)
        # Diagonals lie in (-max_len, glen]; shifted by max_len and spaced
        # so that neighbouring sequences are further than `slack` apart,
        # (sequence, diagonal) is one sorted int64 key per hit.
        shift = int(lens.max(initial=0))
        span = glen + shift + cfg.diagonal_slack + 1
        if 2 * n * span >= 1 << 63:
            raise IndexError_(
                f"a block of {n} reads against {glen} bases overflows the "
                "int64 (sequence, diagonal) seeding keys; seed fewer reads per call"
            )

        packed, valid = rolling_kmers(codes, width)
        # A window is a seed only inside one sequence and N-free.
        valid &= seq_of[: packed.size] == seq_of[width - 1 :]
        at = np.flatnonzero(valid)
        q_seq, q_off = seq_of[at], offset_of[at]
        starts, counts = self.index.locate_seeds(packed[at])
        laps.lap("lookup")

        # Hits are distinct (offset, position) pairs, so a diagonal's votes
        # are simply its hits: one sort + count per slice of sequences.
        found: "list[np.ndarray]" = []  # per slice: (cluster keys, votes) rows
        per_seq = np.bincount(q_seq, weights=counts, minlength=2 * n)
        for a, b in _budget_slices(per_seq, _PASS_BUDGET):
            qa, qb = np.searchsorted(q_seq, (a, b))
            hit_pos, qidx = self.index.seed_hits(starts[qa:qb], counts[qa:qb])
            laps.lap("lookup")
            if hit_pos.size == 0:
                continue
            qidx += qa
            keys, votes = np.unique(
                q_seq[qidx] * span + (hit_pos - q_off[qidx] + shift),
                return_counts=True,
            )
            reps, totals = _cluster_runs(keys, votes, cfg.diagonal_slack)
            keep = totals >= MIN_SUPPORT
            found.append(np.stack((reps[keep], totals[keep])))
            laps.lap("cluster")
        c_key, support = np.concatenate(found, axis=1) if found else np.empty((2, 0), np.int64)
        c_seq, diagonal = c_key // span, c_key % span - shift
        laps.lap("cluster")
        if cfg.qgram_filter and c_key.size:
            keep = self._qgram_keep(codes, lens, c_seq, diagonal)
            c_seq, diagonal, support = c_seq[keep], diagonal[keep], support[keep]
        laps.lap("filter")

        reverse = c_seq >= n
        read_of = np.where(reverse, 2 * n - 1 - c_seq, c_seq)
        strand = np.where(reverse, -1, 1)
        # The clip never fires for a diagonal that came from a genome hit;
        # it pins the documented contract that `start` always leaves the
        # alignment window some genome overlap.
        start = np.clip(diagonal, 1 - lens[c_seq], glen - 1)
        block = SeedBlock(read_of, start, strand, support, diagonal)
        block = block[best_candidates(block, n)]
        reg = metrics()
        reg.inc("seed.reads", n)
        # Pre-truncation count: `seed.candidates` is what seeding *found*;
        # the MAX_CANDIDATES cap's effect is visible as candidates_dropped.
        reg.inc("seed.candidates", int(c_seq.size))
        if len(block) < c_seq.size:
            reg.inc("seed.candidates_dropped", int(c_seq.size - len(block)))
        per_read = np.bincount(np.bincount(block.read, minlength=n))
        for kept in np.flatnonzero(per_read).tolist():
            reg.observe("seed.candidates_per_read", float(kept), int(per_read[kept]))
        laps.lap("rank")
        laps.record()
        return block

    def _qgram_keep(
        self, codes: np.ndarray, lens: np.ndarray, c_seq: np.ndarray, diagonal: np.ndarray
    ) -> np.ndarray:
        """PEANUT-style filtration: which clusters' reference windows share
        enough distinct q-grams with their sequence.

        ``codes`` holds the block's sequences end to end, ``lens`` their
        lengths.  A cluster's window is the genome slice the band would align
        against, widened by ``diagonal_slack`` each side and clamped to the
        genome.  ``qgram_filter`` (C) counts, per window, its sequence's
        distinct q-grams and how many of them occur in the window; the
        threshold is applied here.
        """
        cfg = self.config
        q = QGRAM_Q
        ref = self.index.reference.codes
        start = np.cumsum(lens) - lens
        lo = np.maximum(0, diagonal - cfg.diagonal_slack)
        hi = np.minimum(ref.size, diagonal + lens[c_seq] + cfg.diagonal_slack)
        own, matches = np.empty((2, c_seq.size), dtype=np.int64)
        LIB.qgram_filter(
            c_seq.size, q, ref.ctypes.data, codes.ctypes.data, start.ctypes.data,
            lens.ctypes.data, c_seq.ctypes.data, lo.ctypes.data, hi.ctypes.data,
            own.ctypes.data, matches.ctypes.data,
        )
        # A sequence too short (or too N-ridden) to carry a q-gram has
        # nothing to measure with: the filter is moot and keeps its clusters.
        keep = own == 0
        # Number of q-gram start positions each window holds; <= 0 means
        # the window can't hold one q-gram (candidate almost entirely
        # off-genome): nothing to measure, drop it.
        rows_in = hi - lo - q + 1
        scored = np.flatnonzero(~keep & (rows_in > 0))
        # An edge-clamped window can't contain all the sequence's q-grams
        # no matter how perfect the overlap — scale the bar to capacity.
        capacity = np.minimum(own, rows_in)[scored]
        needed = np.maximum(1, np.ceil(cfg.filter_threshold * capacity).astype(np.int64))
        keep[scored] = matches[scored] >= needed
        n_dropped = int(keep.size - np.count_nonzero(keep))
        if n_dropped:
            metrics().inc("seed.filtered", n_dropped)
        return keep
