"""Variant records, dbSNP-like catalog generation, and variant application.

The paper's accuracy study plants 14,501 evenly spaced dbSNP sites on the
human X chromosome and simulates an individual carrying them.  This module is
the corresponding machinery: :func:`generate_snp_catalog` picks evenly spaced
sites with a realistic transition:transversion ratio, and
:func:`apply_variants` produces the (haploid or diploid) individual genome.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from repro.errors import VariantError
from repro.genome.alphabet import (
    BASES,
    CODE_TO_CHAR,
    N,
    TRANSITION_OF,
)
from repro.genome.reference import Reference
from repro.util.rng import resolve_rng

#: Base letter -> code, for parsing; a whole-string lookup, so "" or "AC"
#: is not a base.
_CODE_OF = {ch: code for code, ch in enumerate(CODE_TO_CHAR)}


@dataclass(frozen=True)
class Variant:
    """A single-nucleotide variant.

    ``genotype`` distinguishes homozygous-alt (``"hom"``) from heterozygous
    (``"het"``) sites; haploid genomes only carry ``"hom"`` variants.
    """

    pos: int
    ref: int
    alt: int
    genotype: str = "hom"

    def __post_init__(self) -> None:
        if self.pos < 0:
            raise VariantError(f"negative variant position {self.pos}")
        if self.ref not in BASES and self.ref != N:
            raise VariantError(f"invalid ref code {self.ref}")
        if self.alt not in BASES:
            raise VariantError(f"invalid alt code {self.alt}")
        if self.ref == self.alt:
            raise VariantError(f"ref == alt ({CODE_TO_CHAR[self.ref]}) at {self.pos}")
        if self.genotype not in ("hom", "het"):
            raise VariantError(f"invalid genotype {self.genotype!r}")


class VariantCatalog:
    """An ordered, position-unique collection of :class:`Variant`.

    Provides set-like membership by position (the evaluation layer asks "is
    there a truth variant here?") and simple TSV round-tripping.
    """

    def __init__(self, variants: Iterable[Variant] = ()) -> None:
        items = sorted(variants, key=lambda v: v.pos)
        seen: set[int] = set()
        for v in items:
            if v.pos in seen:
                raise VariantError(f"duplicate variant at position {v.pos}")
            seen.add(v.pos)
        self._variants: list[Variant] = items
        self._by_pos: dict[int, Variant] = {v.pos: v for v in items}

    def __len__(self) -> int:
        return len(self._variants)

    def __iter__(self) -> "Iterator[Variant]":
        return iter(self._variants)

    def __contains__(self, pos: int) -> bool:
        return pos in self._by_pos

    def __getitem__(self, i: int) -> Variant:
        return self._variants[i]

    def at(self, pos: int) -> Variant | None:
        """The variant at ``pos``, or ``None``."""
        return self._by_pos.get(pos)

    @property
    def positions(self) -> np.ndarray:
        """Sorted variant positions as ``int64``."""
        return np.array([v.pos for v in self._variants], dtype=np.int64)

    def write_tsv(self, path_or_file: "str | Path | TextIO") -> None:
        """Write ``pos / ref / alt / genotype`` TSV with a header line."""
        owned = isinstance(path_or_file, (str, Path))
        fh = open(path_or_file, "w") if owned else path_or_file
        try:
            fh.write("pos\tref\talt\tgenotype\n")
            for v in self._variants:
                fh.write(
                    f"{v.pos}\t{CODE_TO_CHAR[v.ref]}\t{CODE_TO_CHAR[v.alt]}\t"
                    f"{v.genotype}\n"
                )
        finally:
            if owned:
                fh.close()

    @classmethod
    def read_tsv(cls, path_or_file: "str | Path | TextIO") -> "VariantCatalog":
        """Parse the TSV produced by :meth:`write_tsv`.

        A malformed row is a :class:`VariantError` naming the file and the
        line.
        """
        owned = isinstance(path_or_file, (str, Path))
        fh = open(path_or_file) if owned else path_or_file
        where = getattr(fh, "name", "variant TSV")
        try:
            header = fh.readline().rstrip("\n").split("\t")
            if header != ["pos", "ref", "alt", "genotype"]:
                raise VariantError(
                    f"{where}: unexpected variant TSV header {header!r}"
                )
            out = []
            for lineno, line in enumerate(fh, start=2):
                line = line.rstrip("\n")
                if not line:
                    continue
                parts = line.split("\t")
                if len(parts) != 4:
                    raise VariantError(f"{where}: malformed variant line {lineno}")
                pos, ref, alt, gt = parts
                try:
                    variant = Variant(
                        pos=int(pos),
                        ref=_CODE_OF[ref],
                        alt=_CODE_OF[alt],
                        genotype=gt,
                    )
                except (ValueError, KeyError, VariantError) as exc:
                    raise VariantError(
                        f"{where}: line {lineno}: bad variant row {line!r}"
                    ) from exc
                out.append(variant)
            return cls(out)
        finally:
            if owned:
                fh.close()


def generate_snp_catalog(
    reference: Reference,
    n_snps: int,
    seed: "int | np.random.Generator | None" = None,
    transition_bias: float = 2.0,
    het_fraction: float = 0.0,
    min_margin: int = 0,
) -> VariantCatalog:
    """Plant ``n_snps`` evenly spaced SNPs on ``reference``.

    Mirrors the paper's construction (evenly spaced sites drawn from dbSNP):
    sites are the centres of ``n_snps`` equal strata, jittered uniformly
    within each stratum so spacing is even but not periodic.  Alternate
    alleles are transitions with odds ``transition_bias : 1`` against each
    individual transversion (bias 2.0 gives the canonical ~2:1 Ts:Tv).

    Parameters
    ----------
    het_fraction:
        Fraction of sites marked heterozygous (diploid studies); 0 for the
        monoploid experiments.
    min_margin:
        Exclude sites closer than this to either genome end (keeps planted
        SNPs fully coverable by reads).
    """
    if n_snps < 0:
        raise VariantError(f"cannot plant {n_snps} SNPs")
    if n_snps == 0:
        return VariantCatalog()
    if not 0.0 <= het_fraction <= 1.0:
        raise VariantError(f"het_fraction must be in [0,1], got {het_fraction}")
    if transition_bias <= 0:
        raise VariantError("transition_bias must be positive")
    glen = len(reference)
    usable = glen - 2 * min_margin
    if usable < n_snps:
        raise VariantError(
            f"genome of {glen} bases (margin {min_margin}) cannot host "
            f"{n_snps} distinct SNPs"
        )
    rng = resolve_rng(seed)
    edges = np.linspace(min_margin, glen - min_margin, n_snps + 1)
    variants: list[Variant] = []
    for k in range(n_snps):
        lo, hi = int(edges[k]), int(edges[k + 1])
        hi = max(hi, lo + 1)
        # Retry within the stratum until we land on a called (non-N) base;
        # fall back to scanning if the stratum is all N.
        pos = None
        for _ in range(16):
            cand = int(rng.integers(lo, hi))
            if reference.codes[cand] != N:
                pos = cand
                break
        if pos is None:
            called = np.nonzero(reference.codes[lo:hi] != N)[0]
            if called.size == 0:
                continue  # stratum is uncallable; skip (documented shortfall)
            pos = lo + int(called[int(rng.integers(0, called.size))])
        ref = int(reference.codes[pos])
        alt = _draw_alt(ref, transition_bias, rng)
        gt = "het" if rng.random() < het_fraction else "hom"
        variants.append(Variant(pos=pos, ref=ref, alt=alt, genotype=gt))
    return VariantCatalog(variants)


def _draw_alt(ref: int, transition_bias: float, rng: np.random.Generator) -> int:
    """Draw an alternate allele with transition odds ``bias : 1 : 1``."""
    transition = int(TRANSITION_OF[ref])
    others = [b for b in BASES if b != ref and b != transition]
    weights = np.array([transition_bias, 1.0, 1.0])
    weights /= weights.sum()
    return int(rng.choice([transition] + others, p=weights))


def apply_variants(
    reference: Reference,
    catalog: VariantCatalog,
    ploidy: int = 1,
) -> "list[Reference]":
    """Build the individual's haplotype(s) carrying ``catalog``.

    For ``ploidy == 1`` every variant (regardless of genotype label) is
    applied to the single haplotype.  For ``ploidy == 2``, ``hom`` variants go
    on both haplotypes and ``het`` variants on the second only.  Reference
    alleles are validated against the genome; a mismatch raises
    :class:`VariantError`.
    """
    if ploidy not in (1, 2):
        raise VariantError(f"unsupported ploidy {ploidy}")
    for v in catalog:
        if v.pos >= len(reference):
            raise VariantError(
                f"variant at {v.pos} beyond genome of {len(reference)}"
            )
        if int(reference.codes[v.pos]) != v.ref:
            raise VariantError(
                f"variant at {v.pos}: catalog ref "
                f"{CODE_TO_CHAR[v.ref]} != genome "
                f"{CODE_TO_CHAR[int(reference.codes[v.pos])]}"
            )
    haplotypes = []
    for h in range(ploidy):
        codes = reference.codes.copy()
        for v in catalog:
            if ploidy == 1 or v.genotype == "hom" or h == 1:
                codes[v.pos] = v.alt
        haplotypes.append(Reference(codes, name=f"{reference.name}_hap{h}"))
    return haplotypes
