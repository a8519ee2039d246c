"""Minimal VCF 4.2 output for SNP calls.

The paper's GNUMAP-SNP "prints this location to a file" in a bespoke
format; downstream tooling today expects VCF.  This module writes the
subset of VCF 4.2 the caller produces — single-nucleotide substitutions
with genotype, depth, LRT statistic and p-value.  Deletions (gap-channel
calls) are skipped with a count returned, since representing them properly
needs anchored REF/ALT strings the accumulator does not retain.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Iterable, TextIO

from repro.calling.records import BaseCall, SNPCall
from repro.genome.alphabet import CODE_TO_CHAR, GAP

_HEADER_LINES = [
    "##fileformat=VCFv4.2",
    "##source=repro-gnumap-snp",
    '##INFO=<ID=DP,Number=1,Type=Float,Description="Accumulated evidence depth">',
    '##INFO=<ID=LRT,Number=1,Type=Float,Description="-2 log lambda statistic">',
    '##FORMAT=<ID=GT,Number=1,Type=String,Description="Genotype">',
]


def _genotype_string(call: BaseCall, ref_base: int) -> str:
    """Diploid-style GT: 1/1 hom-alt, 0/1 het with ref, 1/2 het alt/alt."""
    genotype = call.genotype
    if len(genotype) == 1:
        return "1/1"
    a, b = genotype
    if a == ref_base or b == ref_base:
        return "0/1"
    return "1/2"


def write_vcf(
    path_or_file: "str | Path | TextIO",
    snps: Iterable[SNPCall],
    contig: str = "ref",
) -> tuple[int, int]:
    """Write SNP calls as VCF; returns ``(written, skipped_gap_calls)``.

    QUAL is the phred-scaled p-value (capped at 5000 for p == 0 underflow).
    """
    owned = isinstance(path_or_file, (str, Path))
    fh = open(path_or_file, "w") if owned else path_or_file
    written = skipped = 0
    try:
        for line in _HEADER_LINES:
            fh.write(line + "\n")
        fh.write(f"##contig=<ID={contig}>\n")
        fh.write("#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tsample\n")
        for snp in sorted(snps, key=lambda s: s.pos):
            genotype = snp.call.genotype
            if GAP in genotype:
                skipped += 1
                continue
            alts = [CODE_TO_CHAR[g] for g in genotype if g != snp.ref_base]
            if not alts:  # pragma: no cover - caller never emits ref-only
                skipped += 1
                continue
            qual = (
                5000.0
                if snp.call.pvalue <= 0
                else min(5000.0, -10.0 * math.log10(snp.call.pvalue))
            )
            gt = _genotype_string(snp.call, snp.ref_base)
            fh.write(
                f"{contig}\t{snp.pos + 1}\t.\t{snp.ref_name}\t"
                f"{','.join(alts)}\t{qual:.2f}\tPASS\t"
                f"DP={snp.call.depth:.2f};LRT={snp.call.stat:.4f}\tGT\t{gt}\n"
            )
            written += 1
    finally:
        if owned:
            fh.close()
    return written, skipped
