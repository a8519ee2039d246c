"""Genomic k-mer hash table (GNUMAP's "genomic hash table of k-mers").

The index maps every packed k-mer to the sorted list of genome positions
where it occurs, stored CSR-style in NumPy arrays (positions + per-row
offsets into them) rather than a dict of lists — this is both the memory
layout the footprint model accounts for and the fast path for vectorised
queries.

Construction is one stable sort of the genome's k-mers (two 16-bit radix
passes for keys of at most 32 bits) and one pass over its runs.  Up to
:data:`DIRECT_MAX_K` the table is direct-address: ``offsets`` has a row for
every possible k-mer, indexed by the packed k-mer itself, so a query is two
gathers (4 MB of ``int32`` offsets at k = 10, whatever the genome).  Wider
tables keep only the k-mers present, as a sorted key array, and a query is
a binary search into it (``lower_bound`` in ``repro/phmm/_lanes.c``).

One table, one width
--------------------
An index is exactly one ``(unique_kmers, offsets, positions)`` CSR table
built at one seed width (up to :data:`~repro.index.kmer.MAX_K`); its key
array is empty when the table is direct-address.  Longer
seeds are SNAP's observation: a 20-mer has ~10\\ :sup:`6` times fewer chance
genome hits than a 10-mer, so seeding a read with *overlapping* 20-mers
yields candidate lists nearly free of spurious diagonals, while error
tolerance comes from the read's many overlapping seed start offsets — that
is ``k=20``, not a second table.

The CSR layout is this module's alone: the shared-memory pool publishes
whatever :meth:`GenomeIndex.shared_state` hands it and a worker passes the
attached views straight back to :meth:`GenomeIndex.from_arrays`, so no other
module names an index array.
"""

from __future__ import annotations

import numpy as np

from repro.errors import IndexError_
from repro.genome.reference import Reference
from repro.index.kmer import MAX_K, rolling_kmers
from repro.observability import current as metrics
from repro.observability import span
from repro.phmm.lanes import LIB

#: GNUMAP's default mer-size.
DEFAULT_K = 10
#: Widest direct-address table: ``4**k + 1`` int32 offsets, 4 MB at 10 whatever
#: the genome (16 and 64 MB at 11 and 12; EXPERIMENTS.md "Seeding by gather").
DIRECT_MAX_K = 10
#: Bytes of the direct-address offsets at :data:`DEFAULT_K`.
DIRECT_TABLE_BYTES = 4 * (4**DEFAULT_K + 1)


def table_width(k: int, seed_len: "int | None") -> int:
    """Width of the one table: ``seed_len``, where set, overrides ``k``.

    ``seed_len`` is the frozen ledger's spelling of a wide index
    (``SeederConfig(seed_len=20)``, ROADMAP item 4); this is the only place
    it is read, and ``k=20`` is the same index.
    """
    return k if seed_len is None else seed_len


def _stable_order(keys: np.ndarray) -> np.ndarray:
    """``np.argsort(keys, kind="stable")``; non-negative keys of at most 32
    bits go as two 16-bit passes, which NumPy radix-sorts (~4x faster)."""
    if keys.dtype.itemsize > 4:
        return np.argsort(keys, kind="stable")
    low = np.argsort(keys.astype(np.uint16), kind="stable")
    return low[np.argsort((keys[low] >> 16).astype(np.uint16), kind="stable")]


def gather_runs(
    table: np.ndarray, starts: np.ndarray, counts: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Concatenate the runs ``table[starts[i] : starts[i] + counts[i]]``.

    Returns ``(values, run_index)``: the gathered rows as ``int64`` and, for
    each, the ``i`` of the run it came from — no Python loop over runs.
    """
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    if total == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    run_index = np.repeat(np.arange(counts.size), counts)
    # Output slot t of a run reads table row t + (run start - output start).
    rows = np.arange(total) + np.repeat(starts - (ends - counts), counts)
    return table[rows].astype(np.int64, copy=False), run_index


class GenomeIndex:
    """Exact-match k-mer index over a reference genome: one CSR table.

    Parameters
    ----------
    reference:
        The genome to index.
    k:
        mer-size (paper default 10).
    max_positions_per_kmer:
        k-mers occurring more often than this are dropped from the index
        (standard repeat masking for seed-and-extend mappers; keeps highly
        repetitive seeds from exploding candidate lists).  ``None`` keeps
        everything.
    seed_len:
        Overrides ``k`` when set (see :func:`table_width`); the index then
        *is* the ``k=seed_len`` index, byte for byte.
    """

    def __init__(
        self,
        reference: Reference,
        k: int = DEFAULT_K,
        max_positions_per_kmer: "int | None" = 64,
        seed_len: "int | None" = None,
    ) -> None:
        k = table_width(k, seed_len)
        if not 1 <= k <= MAX_K:
            raise IndexError_(f"k must be in [1, {MAX_K}], got {k}")
        if len(reference) < k:
            raise IndexError_(
                f"genome of {len(reference)} bases shorter than k={k}"
            )
        if max_positions_per_kmer is not None and max_positions_per_kmer < 1:
            raise IndexError_("max_positions_per_kmer must be >= 1 or None")
        self.reference = reference
        self.k = k
        self.max_positions_per_kmer = max_positions_per_kmer
        with span("index_build"):
            self._build_csr()
        # Index-shape metrics are gauges (max-merge): they describe the
        # genome, so rebuilding the same index in N worker processes must
        # not inflate them the way a counter would.
        reg = metrics()
        reg.inc("index.builds")
        reg.gauge_max("index.kmers", self.n_indexed_kmers)
        reg.gauge_max("index.positions", self.n_indexed_positions)
        reg.gauge_max("index.masked_kmers", self.n_masked_kmers)
        reg.gauge_max("index.bytes", self.nbytes())

    @classmethod
    def from_arrays(
        cls,
        reference: Reference,
        k: int,
        unique_kmers: np.ndarray,
        offsets: np.ndarray,
        positions: np.ndarray,
        max_positions_per_kmer: "int | None" = 64,
        n_masked_kmers: int = 0,
        n_indexed_kmers: int = 0,
    ) -> "GenomeIndex":
        """Rehydrate an index from pre-built CSR arrays without rebuilding.

        The zero-copy attach path for pool workers: the parent publishes
        :meth:`shared_state` and each worker wraps the same pages here
        instead of re-sorting the genome's k-mers.  No build happens, so no
        ``index.builds``/shape metrics are emitted — the parent's build
        already recorded them.  The arrays are trusted views; only shape
        consistency is checked.
        """
        if not 1 <= k <= MAX_K:
            raise IndexError_(f"k must be in [1, {MAX_K}], got {k}")
        rows = 4**k if k <= DIRECT_MAX_K else unique_kmers.size
        if offsets.ndim != 1 or offsets.size != rows + 1:
            raise IndexError_(
                f"offsets must have {rows + 1} entries "
                f"(one per table row plus a terminator), got {offsets.size}"
            )
        index = cls.__new__(cls)
        index.reference = reference
        index.k = k
        index.max_positions_per_kmer = max_positions_per_kmer
        index.n_masked_kmers = n_masked_kmers
        index.n_indexed_kmers = n_indexed_kmers
        index._unique_kmers = unique_kmers
        index._offsets = offsets
        index._positions = positions
        return index

    def shared_state(self) -> "tuple[dict[str, np.ndarray], dict[str, int | None]]":
        """``(arrays, scalars)``: between them :meth:`from_arrays`'s keyword
        arguments besides the reference — the arrays to publish through
        shared memory (a direct-address table's key array is empty), the
        scalars to pickle alongside.
        """
        arrays = {
            "unique_kmers": self._unique_kmers,
            "offsets": self._offsets,
            "positions": self._positions,
        }
        scalars = {
            "k": self.k,
            "max_positions_per_kmer": self.max_positions_per_kmer,
            "n_masked_kmers": self.n_masked_kmers,
            "n_indexed_kmers": self.n_indexed_kmers,
        }
        return arrays, scalars

    def _build_csr(self) -> None:
        """Sort the genome's k-mers into the CSR table."""
        reference = self.reference
        max_positions_per_kmer = self.max_positions_per_kmer
        # Compact dtypes: genome positions and (for k <= 15) packed seeds
        # fit int32, which halves the index footprint — the paper's hash
        # table is similarly position-dense.
        pos_dtype = np.int32 if len(reference) < 2**31 else np.int64
        kmer_dtype = np.int32 if 2 * self.k <= 31 else np.int64
        packed, valid = rolling_kmers(reference.codes, self.k)
        positions = np.flatnonzero(valid).astype(pos_dtype)
        kmers = packed[valid].astype(kmer_dtype)
        order = _stable_order(kmers)
        kmers = kmers[order]
        positions = positions[order]

        # Runs of one k-mer; positions ascend within a run (stable sort).
        starts = np.flatnonzero(np.r_[True, kmers[1:] != kmers[:-1]][: kmers.size])
        counts = np.diff(starts, append=kmers.size)
        keys = kmers[starts]
        n_masked = 0
        if max_positions_per_kmer is not None:
            keep = counts <= max_positions_per_kmer
            n_masked = int(keep.size - np.count_nonzero(keep))
            if n_masked:
                positions = positions[np.repeat(keep, counts)]
                keys, counts = keys[keep], counts[keep]
                starts = np.cumsum(counts) - counts

        # CSR layout: positions grouped by k-mer, offsets delimit the groups.
        ends = np.append(starts, positions.size).astype(pos_dtype)
        if self.k <= DIRECT_MAX_K:
            # Row v starts where the first run of a k-mer >= v starts, so an
            # absent k-mer's row is empty: one fill, no pass over the table.
            self._offsets = np.repeat(ends, np.diff(keys, prepend=-1, append=4**self.k))
            keys = keys[:0]
        else:
            self._offsets = ends
        self._unique_kmers = keys
        self._positions = positions
        self.n_masked_kmers = n_masked
        self.n_indexed_kmers = int(counts.size)

    @property
    def n_indexed_positions(self) -> int:
        """Total genome positions stored across the table's k-mers."""
        return int(self._positions.size)

    @property
    def seed_width(self) -> int:
        """Width callers pack their seed queries at: ``k``."""
        return self.k

    def locate_seeds(self, packed_seeds: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Where each query's hits sit in the table, without materialising
        them: ``(starts, counts)`` per query (count 0 = not indexed).
        ``counts.sum()`` is the size of what :meth:`seed_hits` would
        return, so a caller can bound its transients first.
        """
        if self.k > DIRECT_MAX_K:
            return self._locate(self._unique_kmers, self._offsets, packed_seeds)
        queries = np.asarray(packed_seeds)
        # A query outside the key space is in no row: "not found".
        inside = (queries >= 0) & (queries < self._offsets.size - 1)
        row = np.where(inside, queries, 0)
        starts = self._offsets[row].astype(np.int64)
        return starts, np.where(inside, self._offsets[row + 1] - starts, 0)

    def seed_hits(
        self, starts: np.ndarray, counts: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Materialise located seeds (or any slice of them) as
        ``(hit_positions, query_indices)``, grouped by query."""
        return gather_runs(self._positions, starts, counts)

    def lookup_seeds_flat(
        self, packed_seeds: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Fully vectorised batch lookup of ``k``-wide packed seeds.

        Returns ``(hit_positions, query_indices)`` — flat arrays where
        ``hit_positions[t]`` is a genome hit for query
        ``packed_seeds[query_indices[t]]``; entries are grouped by query in
        ascending order.  No Python-level loop over queries or hits.
        """
        return self.seed_hits(*self.locate_seeds(packed_seeds))

    @staticmethod
    def _locate(
        unique_kmers: np.ndarray, offsets: np.ndarray, packed_kmers: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        queries = np.ascontiguousarray(packed_kmers, dtype=np.int64)
        if queries.size == 0 or unique_kmers.size == 0:
            nothing = np.zeros(queries.size, dtype=np.int64)
            return nothing, nothing
        # The C search reads the table in its own dtype (int32 up to k = 15)
        # and compares exactly, so a query the table cannot hold is "not
        # found", never wrapped.
        idx = np.empty(queries.size, dtype=np.int64)
        LIB.lower_bound(
            queries.size, queries.ctypes.data, unique_kmers.ctypes.data,
            unique_kmers.size, unique_kmers.dtype.itemsize == 8, idx.ctypes.data,
        )
        np.minimum(idx, unique_kmers.size - 1, out=idx)
        found = unique_kmers[idx] == queries
        starts = offsets[idx].astype(np.int64)
        counts = np.where(found, offsets[idx + 1] - starts, 0)
        return starts, counts

    def nbytes(self) -> int:
        """Bytes held by the index arrays (used by the footprint model)."""
        return int(
            self._unique_kmers.nbytes + self._offsets.nbytes + self._positions.nbytes
        )
