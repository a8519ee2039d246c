"""BED-style region sets: restrict calling to (or away from) intervals.

Real resequencing analyses call variants over target regions (exome
panels) or exclude blacklists (low-complexity tracts).  A
:class:`RegionSet` is a merged, sorted collection of half-open intervals
with membership tests, boolean-mask conversion, complement, and BED
round-tripping; :meth:`~repro.calling.caller.SNPCaller.snps` accepts one
via its ``regions`` argument.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence, TextIO

import numpy as np

from repro.errors import ReproError


@dataclass(frozen=True)
class Region:
    """Half-open interval ``[start, stop)``."""

    start: int
    stop: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.stop <= self.start:
            raise ReproError(f"invalid region [{self.start}, {self.stop})")

    def __len__(self) -> int:
        return self.stop - self.start


class RegionSet:
    """Sorted, merged, non-overlapping intervals."""

    def __init__(self, regions: "Iterable[Region | tuple[int, int]]" = ()) -> None:
        normalised = [
            r if isinstance(r, Region) else Region(int(r[0]), int(r[1]))
            for r in regions
        ]
        normalised.sort(key=lambda r: r.start)
        merged: list[Region] = []
        for r in normalised:
            if merged and r.start <= merged[-1].stop:
                if r.stop > merged[-1].stop:
                    merged[-1] = Region(merged[-1].start, r.stop)
            else:
                merged.append(r)
        self._regions = merged
        self._starts = np.array([r.start for r in merged], dtype=np.int64)
        self._stops = np.array([r.stop for r in merged], dtype=np.int64)

    def __len__(self) -> int:
        return len(self._regions)

    def __iter__(self) -> "Iterator[Region]":
        return iter(self._regions)

    def __contains__(self, pos: int) -> bool:
        i = int(np.searchsorted(self._starts, pos, side="right")) - 1
        return i >= 0 and pos < self._stops[i]

    def total_bases(self) -> int:
        """Sum of interval lengths (after merging)."""
        return int((self._stops - self._starts).sum())

    def contains_many(self, positions: np.ndarray) -> np.ndarray:
        """Vectorised membership test."""
        positions = np.asarray(positions, dtype=np.int64)
        if not self._regions:
            # No stop to index below: nothing is inside an empty set.
            return np.zeros(positions.shape, dtype=bool)
        idx = np.searchsorted(self._starts, positions, side="right") - 1
        ok = idx >= 0
        safe = np.maximum(idx, 0)
        return ok & (positions < self._stops[safe])

    def mask(self, genome_length: int) -> np.ndarray:
        """Boolean per-position mask of length ``genome_length``."""
        if genome_length < 0:
            raise ReproError("genome_length must be non-negative")
        out = np.zeros(genome_length, dtype=bool)
        for r in self._regions:
            out[r.start : min(r.stop, genome_length)] = True
        return out

    def complement(self, genome_length: int) -> "RegionSet":
        """Intervals covering everything *outside* this set."""
        out: list[Region] = []
        cursor = 0
        for r in self._regions:
            if r.start >= genome_length:
                break
            if r.start > cursor:
                out.append(Region(cursor, r.start))
            cursor = max(cursor, r.stop)
        if cursor < genome_length:
            out.append(Region(cursor, genome_length))
        return RegionSet(out)

    # -- BED round trip ---------------------------------------------------
    def write_bed(self, path_or_file: "str | Path | TextIO", chrom: str = "ref") -> None:
        owned = isinstance(path_or_file, (str, Path))
        fh = open(path_or_file, "w") if owned else path_or_file
        try:
            for r in self._regions:
                fh.write(f"{chrom}\t{r.start}\t{r.stop}\n")
        finally:
            if owned:
                fh.close()

    @classmethod
    def read_bed(cls, path_or_file: "str | Path | TextIO") -> "RegionSet":
        owned = isinstance(path_or_file, (str, Path))
        fh = open(path_or_file) if owned else path_or_file
        try:
            regions = []
            for lineno, line in enumerate(fh, start=1):
                line = line.rstrip("\n")
                if not line or line.startswith(("#", "track", "browser")):
                    continue
                fields = line.split("\t")
                if len(fields) < 3:
                    raise ReproError(f"malformed BED line {lineno}")
                regions.append(Region(int(fields[1]), int(fields[2])))
            return cls(regions)
        finally:
            if owned:
                fh.close()
