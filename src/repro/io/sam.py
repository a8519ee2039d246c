"""Minimal SAM v1 output for read placements.

GNUMAP's probabilistic philosophy maps cleanly onto SAM's fields: a read's
*primary* alignment is its highest-weight candidate location, its mapping
quality is the phred-scaled posterior that this placement is correct
(``-10 log10(1 - w)``, the definition MAQ introduced, computed here from
the GNUMAP location weights rather than from score gaps), and remaining
high-weight candidates are emitted as secondary alignments (flag 0x100) so
no information is discarded.  CIGAR strings come from the Viterbi path of
the chosen window.

Only the subset of SAM the pipeline can honestly populate is written: no
mate fields (paired placements come from :mod:`repro.pipeline.paired` and
are emitted as two singletons with a ``Zw`` weight tag), no header
read-groups.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from repro.errors import PipelineError
from repro.genome.alphabet import decode, reverse_complement
from repro.genome.fastq import Read
from repro.index.seeding import SeedBlock
from repro.phmm.forward_backward import emissions_batch
from repro.phmm.viterbi import viterbi_align
from repro.pipeline.evidence import PairStack, cut_windows, read_slices
from repro.pipeline.gnumap import GnumapSnp


@dataclass(frozen=True)
class Placement:
    """One candidate placement of one read.

    ``pos`` is the 0-based genome position of the first aligned base;
    ``weight`` the normalised posterior location weight; ``cigar`` the
    Viterbi-path CIGAR of the read against its window.
    """

    read_name: str
    pos: int
    strand: int
    weight: float
    loglik: float
    cigar: str
    seq: str
    qual: str
    is_primary: bool


def _cigar_from_pairs(pairs: "list[tuple[int, int]]", read_len: int) -> str:
    """Build a CIGAR string from 1-based Viterbi (i, j) match pairs.

    Unmatched read prefix/suffix become soft clips; interior i-jumps are
    insertions, j-jumps deletions.
    """
    if not pairs:
        return f"{read_len}S" if read_len else "*"
    ops: list[tuple[str, int]] = []

    def push(op: str, n: int) -> None:
        if n <= 0:
            return
        if ops and ops[-1][0] == op:
            ops[-1] = (op, ops[-1][1] + n)
        else:
            ops.append((op, n))

    first_i, _ = pairs[0]
    push("S", first_i - 1)
    prev_i, prev_j = pairs[0]
    push("M", 1)
    for i, j in pairs[1:]:
        di, dj = i - prev_i, j - prev_j
        push("I", di - 1)
        push("D", dj - 1)
        push("M", 1)
        prev_i, prev_j = i, j
    push("S", read_len - prev_i)
    return "".join(f"{n}{op}" for op, n in ops)


def collect_placements(
    pipeline: "GnumapSnp",
    reads: "Iterable[Read]",
    max_secondary: int = 4,
) -> list[Placement]:
    """Seed + align + weight each read, returning SAM-ready placements.

    ``pipeline`` is a :class:`~repro.pipeline.gnumap.GnumapSnp`; its
    configuration (quality awareness, pad, PHMM params, min_ratio) governs
    the alignment, exactly as in the calling pipeline: scores and weights
    are its mapping loop's, and only the placements a read keeps (its
    ``1 + max_secondary`` heaviest) are walked by Viterbi for a CIGAR.
    """
    if max_secondary < 0:
        raise PipelineError("max_secondary must be >= 0")
    cfg = pipeline.config
    reads = list(reads)
    out: list[Placement] = []
    for evidence in pipeline.map_batches(reads):
        weights = pipeline.weigh(evidence.loglik, evidence.groups)
        kept: list[int] = []  # pair index of every placement, heaviest first per read
        primary = set()
        for _, pairs in read_slices(evidence.groups):
            order = pairs.start + np.argsort(-weights[pairs])[: 1 + max_secondary]
            kept += order[weights[order] > 0].tolist()
            primary.add(int(order[0]))
        if not kept:
            continue
        at = np.asarray(kept)
        starts, strands = evidence.starts[at], evidence.strands[at]
        # Windows and PWMs need read, start and strand only.
        placed = SeedBlock(evidence.groups[at], starts, strands, np.ones_like(at), starts)
        pwms, windows = cut_windows(
            pipeline.reference.codes, PairStack(reads, placed, cfg), cfg
        )
        pstar = emissions_batch(pwms, windows, cfg.phmm)
        for k, emissions in zip(kept, pstar):
            path = viterbi_align(emissions, cfg.phmm)
            if not path.pairs:
                continue
            read = reads[evidence.groups[k]]
            # genome position of the first matched base
            first_i, first_j = path.pairs[0]
            genome_pos = int(evidence.starts[k]) - cfg.pad + (first_j - 1)
            if evidence.strands[k] == 1:
                seq = read.sequence
                qual = read.quality_string
            else:
                seq = decode(reverse_complement(read.codes))
                qual = read.quality_string[::-1]
            out.append(
                Placement(
                    read_name=read.name,
                    pos=genome_pos,
                    strand=int(evidence.strands[k]),
                    weight=float(weights[k]),
                    loglik=float(evidence.loglik[k]),
                    cigar=_cigar_from_pairs(path.pairs, len(read)),
                    seq=seq,
                    qual=qual,
                    is_primary=k in primary,
                )
            )
    return out


def _mapq(weight: float) -> int:
    """MAQ-style mapping quality from the placement posterior."""
    if weight >= 1.0 - 1e-10:
        return 60
    if weight <= 0.0:
        return 0
    return int(min(60, round(-10.0 * math.log10(1.0 - weight))))


def write_sam(
    path_or_file: "str | Path | TextIO",
    placements: "Iterable[Placement]",
    reference_name: str,
    reference_length: int,
) -> int:
    """Write placements as SAM; returns the number of alignment lines."""
    if reference_length <= 0:
        raise PipelineError("reference_length must be positive")
    owned = isinstance(path_or_file, (str, Path))
    fh = open(path_or_file, "w") if owned else path_or_file
    n = 0
    try:
        fh.write("@HD\tVN:1.6\tSO:unknown\n")
        fh.write(f"@SQ\tSN:{reference_name}\tLN:{reference_length}\n")
        fh.write("@PG\tID:repro\tPN:repro-gnumap-snp\n")
        for p in placements:
            flag = 0
            if p.strand == -1:
                flag |= 0x10
            if not p.is_primary:
                flag |= 0x100
            fh.write(
                f"{p.read_name}\t{flag}\t{reference_name}\t{p.pos + 1}\t"
                f"{_mapq(p.weight)}\t{p.cigar}\t*\t0\t0\t{p.seq}\t{p.qual}\t"
                f"Zw:f:{p.weight:.4f}\n"
            )
            n += 1
    finally:
        if owned:
            fh.close()
    return n
