"""Genomic k-mer hash table (GNUMAP's "genomic hash table of k-mers").

The index maps every packed k-mer to the sorted list of genome positions
where it occurs, stored CSR-style in two NumPy arrays (positions +
per-kmer offsets into them) rather than a dict of lists — this is both the
memory layout the footprint model accounts for and the fast path for
vectorised queries.

Construction cost is one sort of the genome's k-mers; queries are
O(log #kmers) binary searches into the sorted unique-kmer table.

Long-seed table (SNAP-style)
----------------------------
Besides the base ``k`` table the index can carry a second CSR table at a
longer seed width (``seed_len``, up to :data:`~repro.index.kmer.MAX_K`).
Longer seeds are SNAP's observation: a 20-mer has ~10\\ :sup:`6` times
fewer chance genome hits than a 10-mer, so seeding a read with *overlapping*
long seeds yields candidate lists that are nearly free of spurious
diagonals, while error tolerance comes from the read's many overlapping
seed start offsets.  The long table reuses the identical CSR layout and
query machinery — it is simply a second ``(unique_kmers, offsets,
positions)`` triple built at width ``seed_len`` — so the shared-memory
publication path broadcasts it with the same three-array recipe as the
base table (see :mod:`repro.parallel.shm`).
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

#: One CSR table: (unique packed seeds, group offsets, genome positions).
CsrTriple = "tuple[np.ndarray, np.ndarray, np.ndarray]"


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
    """Exact-match k-mer index over a reference genome.

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
        everything.  Applies to the long-seed table too.
    seed_len:
        When set (must exceed ``k``), additionally build the SNAP-style
        long-seed CSR table at this width; :meth:`lookup_seeds_flat` then
        queries it instead of the base table.  ``None`` (default) keeps the
        single-width index — byte-identical behaviour to the historical
        layout.
    """

    def __init__(
        self,
        reference: Reference,
        k: int = DEFAULT_K,
        max_positions_per_kmer: "int | None" = 64,
        seed_len: "int | None" = None,
    ) -> None:
        if not 1 <= k <= MAX_K:
            raise IndexError_(f"k must be in [1, {MAX_K}], got {k}")
        if len(reference) < k:
            raise IndexError_(
                f"genome of {len(reference)} bases shorter than k={k}"
            )
        if max_positions_per_kmer is not None and max_positions_per_kmer < 1:
            raise IndexError_("max_positions_per_kmer must be >= 1 or None")
        if seed_len is not None:
            if not k < seed_len <= MAX_K:
                raise IndexError_(
                    f"seed_len must be in ({k}, {MAX_K}] (longer than k, "
                    f"packable), got {seed_len}"
                )
            if len(reference) < seed_len:
                raise IndexError_(
                    f"genome of {len(reference)} bases shorter than "
                    f"seed_len={seed_len}"
                )
        self.reference = reference
        self.k = k
        self.max_positions_per_kmer = max_positions_per_kmer
        self.seed_len = seed_len
        self._long_kmers: "np.ndarray | None" = None
        self._long_offsets: "np.ndarray | None" = None
        self._long_positions: "np.ndarray | None" = None
        self.n_masked_long_kmers = 0
        with span("index_build"):
            (
                self._unique_kmers,
                self._offsets,
                self._positions,
                self.n_masked_kmers,
            ) = self._build_csr(k)
            if seed_len is not None:
                (
                    self._long_kmers,
                    self._long_offsets,
                    self._long_positions,
                    self.n_masked_long_kmers,
                ) = self._build_csr(seed_len)
        # Index-shape metrics are gauges (max-merge): they describe the
        # genome, so rebuilding the same index in N worker processes must
        # not inflate them the way a counter would.
        reg = metrics()
        reg.inc("index.builds")
        reg.gauge_max("index.kmers", self.n_indexed_kmers)
        reg.gauge_max("index.positions", self.n_indexed_positions)
        reg.gauge_max("index.masked_kmers", self.n_masked_kmers)
        reg.gauge_max("index.bytes", self.nbytes())
        if self._long_kmers is not None:
            reg.gauge_max("index.long_kmers", int(self._long_kmers.size))
            assert self._long_positions is not None
            reg.gauge_max("index.long_positions", int(self._long_positions.size))

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
        seed_len: "int | None" = None,
        long_kmers: "np.ndarray | None" = None,
        long_offsets: "np.ndarray | None" = None,
        long_positions: "np.ndarray | None" = None,
        n_masked_long_kmers: int = 0,
    ) -> "GenomeIndex":
        """Rehydrate an index from pre-built CSR arrays without rebuilding.

        The zero-copy attach path for pool workers: the parent publishes
        :meth:`csr_arrays` (and, with a long-seed table,
        :meth:`long_csr_arrays`) through shared memory and each worker wraps
        the same pages here instead of re-sorting the genome's k-mers.  No
        build happens, so no ``index.builds``/shape metrics are emitted —
        the parent's build already recorded them.  The arrays are trusted
        views; only shape consistency is checked.
        """
        if not 1 <= k <= MAX_K:
            raise IndexError_(f"k must be in [1, {MAX_K}], got {k}")
        if offsets.ndim != 1 or offsets.size != unique_kmers.size + 1:
            raise IndexError_(
                f"offsets must have {unique_kmers.size + 1} entries "
                f"(one per unique k-mer plus a terminator), got {offsets.size}"
            )
        long_triple = (long_kmers, long_offsets, long_positions)
        if seed_len is not None:
            if not k < seed_len <= MAX_K:
                raise IndexError_(
                    f"seed_len must be in ({k}, {MAX_K}], got {seed_len}"
                )
            if any(a is None for a in long_triple):
                raise IndexError_(
                    "seed_len set but the long-seed CSR triple is incomplete"
                )
            assert long_kmers is not None and long_offsets is not None
            if long_offsets.ndim != 1 or long_offsets.size != long_kmers.size + 1:
                raise IndexError_(
                    f"long_offsets must have {long_kmers.size + 1} entries, "
                    f"got {long_offsets.size}"
                )
        elif any(a is not None for a in long_triple):
            raise IndexError_("long-seed arrays supplied without seed_len")
        index = cls.__new__(cls)
        index.reference = reference
        index.k = k
        index.max_positions_per_kmer = max_positions_per_kmer
        index.n_masked_kmers = n_masked_kmers
        index._unique_kmers = unique_kmers
        index._offsets = offsets
        index._positions = positions
        index.seed_len = seed_len
        index._long_kmers = long_kmers
        index._long_offsets = long_offsets
        index._long_positions = long_positions
        index.n_masked_long_kmers = n_masked_long_kmers
        return index

    def csr_arrays(self) -> CsrTriple:
        """The base-table CSR triple ``(unique_kmers, offsets, positions)``.

        Publication accessor for the shared-memory broadcast; pair with
        :meth:`from_arrays` on the attaching side.
        """
        return self._unique_kmers, self._offsets, self._positions

    def long_csr_arrays(self) -> CsrTriple:
        """The long-seed CSR triple; raises when no long table was built."""
        if (
            self._long_kmers is None
            or self._long_offsets is None
            or self._long_positions is None
        ):
            raise IndexError_("index has no long-seed table (seed_len unset)")
        return self._long_kmers, self._long_offsets, self._long_positions

    def _build_csr(self, width: int) -> "tuple[np.ndarray, np.ndarray, np.ndarray, int]":
        """Build one CSR table at seed width ``width``.

        Returns ``(unique_kmers, offsets, positions, n_masked)``.
        """
        reference = self.reference
        max_positions_per_kmer = self.max_positions_per_kmer
        # Compact dtypes: genome positions and (for width <= 15) packed
        # seeds fit int32, which halves the index footprint — the paper's
        # hash table is similarly position-dense.
        pos_dtype = np.int32 if len(reference) < 2**31 else np.int64
        kmer_dtype = np.int32 if 2 * width <= 31 else np.int64
        packed, valid = rolling_kmers(reference.codes, width)
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
        offsets = np.concatenate([starts, [kmers.size]]).astype(pos_dtype)
        return unique, offsets, positions, n_masked

    @property
    def n_indexed_kmers(self) -> int:
        """Number of distinct k-mers present in the base table."""
        return int(self._unique_kmers.size)

    @property
    def n_indexed_positions(self) -> int:
        """Total genome positions stored across the base table's k-mers."""
        return int(self._positions.size)

    @property
    def seed_width(self) -> int:
        """Width of the seeds the seeding stage queries with
        (``seed_len`` when the long table exists, else ``k``)."""
        return self.k if self.seed_len is None else self.seed_len

    def lookup(self, packed_kmer: int) -> np.ndarray:
        """Genome positions where ``packed_kmer`` begins (possibly empty)."""
        starts, counts = self._locate(
            self._unique_kmers, self._offsets, np.array([packed_kmer])
        )
        if counts[0] == 0:
            return np.empty(0, dtype=np.int64)
        return self._positions[starts[0] : starts[0] + counts[0]]

    def lookup_many(self, packed_kmers: np.ndarray) -> "list[np.ndarray]":
        """Multi-kmer lookup: one position array per query."""
        hits, qidx = self.lookup_flat(packed_kmers)
        n = np.asarray(packed_kmers).size
        out: "list[np.ndarray]" = [np.empty(0, dtype=np.int64)] * n
        if hits.size:
            bounds = np.searchsorted(qidx, np.arange(n + 1))
            for q in range(n):
                if bounds[q + 1] > bounds[q]:
                    out[q] = hits[bounds[q] : bounds[q + 1]]
        return out

    def lookup_flat(self, packed_kmers: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Fully vectorised batch lookup against the base ``k`` table.

        Returns ``(hit_positions, query_indices)`` — flat arrays where
        ``hit_positions[t]`` is a genome hit for query
        ``packed_kmers[query_indices[t]]``; entries are grouped by query in
        ascending order.  No Python-level loop over queries or hits.
        """
        starts, counts = self._locate(self._unique_kmers, self._offsets, packed_kmers)
        return gather_runs(self._positions, starts, counts)

    def _seed_table(self) -> CsrTriple:
        """The table seeding queries: the long-seed one when it was built."""
        return self.csr_arrays() if self._long_kmers is None else self.long_csr_arrays()

    def locate_seeds(self, packed_seeds: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Where each query's hits sit in the seeding table, without
        materialising them: ``(starts, counts)`` per query (count 0 = not
        indexed).  ``counts.sum()`` is the size of what :meth:`seed_hits`
        would return, so a caller can bound its transients first.
        """
        unique_kmers, offsets, _ = self._seed_table()
        return self._locate(unique_kmers, offsets, packed_seeds)

    def seed_hits(
        self, starts: np.ndarray, counts: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Materialise located seeds (or any slice of them) as
        ``(hit_positions, query_indices)``, grouped by query."""
        return gather_runs(self._seed_table()[2], starts, counts)

    def lookup_seeds_flat(
        self, packed_seeds: np.ndarray
    ) -> "tuple[np.ndarray, np.ndarray]":
        """Batch lookup against the *seeding* table.

        Queries the long-seed table when one was built (``seed_len`` set;
        the packed values must then be ``seed_len``-wide), else the base
        ``k`` table — callers pack their seeds at :attr:`seed_width`.
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
        total = int(
            self._unique_kmers.nbytes + self._offsets.nbytes + self._positions.nbytes
        )
        if self._long_kmers is not None:
            assert self._long_offsets is not None and self._long_positions is not None
            total += int(
                self._long_kmers.nbytes
                + self._long_offsets.nbytes
                + self._long_positions.nbytes
            )
        return total
