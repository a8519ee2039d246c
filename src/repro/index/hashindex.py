"""Genomic k-mer hash table (GNUMAP's "genomic hash table of k-mers").

The index maps every packed k-mer to the sorted list of genome positions
where it occurs, stored CSR-style in two NumPy arrays (positions +
per-kmer offsets into them) rather than a dict of lists — this is both the
memory layout the footprint model accounts for and the fast path for
vectorised queries.

Construction cost is one sort of the genome's k-mers; queries are
O(log #kmers) binary searches into the sorted unique-kmer table.

One table, one width
--------------------
An index is exactly one ``(unique_kmers, offsets, positions)`` CSR triple
built at one seed width (up to :data:`~repro.index.kmer.MAX_K`).  Longer
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

#: GNUMAP's default mer-size.
DEFAULT_K = 10


def table_width(k: int, seed_len: "int | None") -> int:
    """Width of the one table: ``seed_len``, where set, overrides ``k``.

    ``seed_len`` is the frozen ledger's spelling of a wide index
    (``SeederConfig(seed_len=20)``, ROADMAP item 4); this is the only place
    it is read, and ``k=20`` is the same index.
    """
    return k if seed_len is None else seed_len


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
        if offsets.ndim != 1 or offsets.size != unique_kmers.size + 1:
            raise IndexError_(
                f"offsets must have {unique_kmers.size + 1} entries "
                f"(one per unique k-mer plus a terminator), got {offsets.size}"
            )
        index = cls.__new__(cls)
        index.reference = reference
        index.k = k
        index.max_positions_per_kmer = max_positions_per_kmer
        index.n_masked_kmers = n_masked_kmers
        index._unique_kmers = unique_kmers
        index._offsets = offsets
        index._positions = positions
        return index

    def shared_state(self) -> "tuple[dict[str, np.ndarray], dict[str, int | None]]":
        """``(arrays, scalars)``: between them :meth:`from_arrays`'s keyword
        arguments besides the reference — the arrays to publish through
        shared memory, the scalars to pickle alongside.
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
        }
        return arrays, scalars

    def _build_csr(self) -> None:
        """Sort the genome's k-mers into the CSR triple."""
        reference = self.reference
        max_positions_per_kmer = self.max_positions_per_kmer
        # Compact dtypes: genome positions and (for k <= 15) packed seeds
        # fit int32, which halves the index footprint — the paper's hash
        # table is similarly position-dense.
        pos_dtype = np.int32 if len(reference) < 2**31 else np.int64
        kmer_dtype = np.int32 if 2 * self.k <= 31 else np.int64
        packed, valid = rolling_kmers(reference.codes, self.k)
        positions = np.nonzero(valid)[0].astype(pos_dtype)
        kmers = packed[valid].astype(kmer_dtype)
        order = np.argsort(kmers, kind="stable")
        kmers = kmers[order]
        positions = positions[order]

        unique, starts, counts = np.unique(kmers, return_index=True, return_counts=True)
        n_masked = 0
        if max_positions_per_kmer is not None:
            keep = counts <= max_positions_per_kmer
            n_masked = int((~keep).sum())
            if not keep.all():
                keep_rows = np.repeat(keep, counts)  # kmers is sorted by group
                kmers = kmers[keep_rows]
                positions = positions[keep_rows]
                unique, starts, counts = np.unique(
                    kmers, return_index=True, return_counts=True
                )

        # CSR layout: positions grouped by k-mer, offsets delimit the groups.
        self._unique_kmers = unique
        self._offsets = np.concatenate([starts, [kmers.size]]).astype(pos_dtype)
        self._positions = positions
        self.n_masked_kmers = n_masked

    @property
    def n_indexed_kmers(self) -> int:
        """Number of distinct k-mers present in the table."""
        return int(self._unique_kmers.size)

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
        return self._locate(self._unique_kmers, self._offsets, packed_seeds)

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
        queries = np.asarray(packed_kmers)
        if queries.size == 0 or unique_kmers.size == 0:
            nothing = np.zeros(queries.size, dtype=np.int64)
            return nothing, nothing
        # Search in the table's dtype: a mixed-dtype searchsorted converts
        # the whole table on every call.  A query the table dtype cannot
        # hold is in no table, so it is "not found", never wrapped.
        narrow = queries.astype(unique_kmers.dtype, copy=False)
        idx = np.minimum(np.searchsorted(unique_kmers, narrow), unique_kmers.size - 1)
        found = (unique_kmers[idx] == narrow) & (narrow == queries)
        starts = offsets[idx].astype(np.int64)
        counts = np.where(found, offsets[idx + 1] - starts, 0)
        return starts, counts

    def nbytes(self) -> int:
        """Bytes held by the index arrays (used by the footprint model)."""
        return int(
            self._unique_kmers.nbytes + self._offsets.nbytes + self._positions.nbytes
        )
