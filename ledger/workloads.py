"""Deterministic input generator for the ledger benchmark.

Everything the program under test sees is a file written here from one
``--seed``: ``ref.fa`` (the chrX-like target), ``ref_decoy.fa`` (the same
target followed by a large decoy, so truth positions hold), ``reads.fq``
and ``truth.tsv``.  ``origins.tsv`` holds each read's true position and
strand; only the ledger reads it (``index.seed_recall``).

The generator deliberately imports nothing from ``repro``: a later change
to ``repro.simulate`` must not silently change the benchmark's inputs.  It
follows the same recipe as ``build_workload("small", seed)`` — iid
background at chrX-like GC with planted diverged repeat pairs, evenly
spaced jittered SNPs with a 2:1 transition bias, uniform both-strand
62 bp reads whose substitution rate ramps 0.1% -> 1.5% along the read and
whose Phred qualities track that rate with noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BASES = "ACGT"
GC_CONTENT = 0.41
REPEAT_DIVERGENCE = 0.02
#: The Illumina-like ramp: error probability at the first and last base.
START_ERROR, END_ERROR, RAMP = 0.001, 0.015, 1.6
QUALITY_NOISE_SD = 2.0
MAX_QUALITY = 41
FASTA_WIDTH = 70
#: Two adjacent seeds of the default k=10 index span 11 bases.
SCRUB_K = 11


@dataclass(frozen=True)
class Spec:
    """Sizes of one generated input set.

    The default is the largest set whose four workloads fit the benchmark
    driver's time cap (see README.md, "Why the inputs are this size").
    """

    target_len: int = 4_000
    n_snps: int = 25
    coverage: float = 10.0
    read_len: int = 62
    target_repeats: int = 2
    target_repeat_len: int = 150
    decoy_len: int = 475_000
    decoy_repeats: int = 8
    decoy_repeat_len: int = 400

    @property
    def n_reads(self) -> int:
        return math.ceil(self.coverage * self.target_len / self.read_len)


@dataclass(frozen=True)
class Inputs:
    """Paths of one generated input set, plus what the ledger keeps aside."""

    directory: Path
    ref: Path
    ref_decoy: Path
    reads: Path
    truth: Path
    origins: Path
    n_reads: int


def _scrub_chance_repeats(rng: np.random.Generator, codes: np.ndarray, k: int) -> None:
    """Mutate ``codes`` until no ``k``-mer occurs twice on either strand.

    A 4 kbp iid background holds a Poisson handful of chance 11-mer
    duplicates; each one is two adjacent k=10 seeds on one diagonal, i.e.
    a spurious candidate for every read covering it.  Their number swings
    pairs per read by +-10% from seed to seed, and ``reads_per_s`` with it.
    Scrubbed, the only multi-mapping reads are those of the planted repeats.
    """
    weights = 4 ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for _ in range(100):
        windows = np.lib.stride_tricks.sliding_window_view(codes.astype(np.int64), k)
        both = np.concatenate([windows @ weights, (3 - windows[:, ::-1]) @ weights])
        order = np.argsort(both, kind="stable")
        repeated = both[order][1:] == both[order][:-1]
        later = np.unique(order[1:][repeated] % windows.shape[0])
        if later.size == 0:
            return
        middle = later + k // 2
        codes[middle] = (codes[middle] + rng.integers(1, 4, size=later.size)) % 4
    raise ValueError(f"could not scrub chance {k}-mer repeats")


def _genome(
    rng: np.random.Generator,
    length: int,
    n_repeats: int,
    repeat_len: int,
    scrub_k: "int | None" = None,
) -> "tuple[np.ndarray, list[tuple[int, int]]]":
    """iid background plus ``n_repeats`` non-overlapping diverged copies.

    Returns the codes and the ``[start, stop)`` intervals the repeat units
    occupy (source and copy).
    """
    gc = GC_CONTENT
    probs = [(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2]
    codes = rng.choice(4, size=length, p=probs).astype(np.uint8)
    if scrub_k is not None:
        _scrub_chance_repeats(rng, codes, scrub_k)
    taken: "list[tuple[int, int]]" = []

    def free(start: int) -> bool:
        return all(start >= b or start + repeat_len <= a for a, b in taken)

    placed = 0
    for _ in range(1000 * max(n_repeats, 1)):
        if placed == n_repeats:
            break
        src, dst = (int(v) for v in rng.integers(0, length - repeat_len + 1, size=2))
        if abs(src - dst) < repeat_len or not (free(src) and free(dst)):
            continue
        unit = codes[src : src + repeat_len].copy()
        flips = rng.random(repeat_len) < REPEAT_DIVERGENCE
        unit[flips] = (unit[flips] + rng.integers(1, 4, size=int(flips.sum()))) % 4
        codes[dst : dst + repeat_len] = unit
        taken += [(src, src + repeat_len), (dst, dst + repeat_len)]
        placed += 1
    if placed < n_repeats:
        raise ValueError(f"could not place {n_repeats} repeats in {length} bases")
    return codes, taken


def _plant_snps(
    rng: np.random.Generator,
    codes: np.ndarray,
    n_snps: int,
    margin: int,
    avoid: "list[tuple[int, int]]",
) -> "list[tuple[int, int, int]]":
    """Evenly spaced, jittered ``(pos, ref, alt)`` sites outside ``avoid``
    and at least ``margin`` from either end.

    Sites stay out of the planted repeat units so that ``snp_f1`` measures
    calling and not whether a site happened to land in a paralog.
    """
    transition = np.array([2, 3, 0, 1])  # A<->G, C<->T
    allowed = np.ones(codes.size, dtype=bool)
    allowed[:margin] = allowed[codes.size - margin :] = False
    for a, b in avoid:
        allowed[a:b] = False
    # Equal strata of the *allowed* positions, so a stratum is never empty;
    # a site is drawn from its stratum's middle half, which keeps any two
    # sites at least half a stratum apart.
    eligible = np.flatnonzero(allowed)
    edges = np.linspace(0, eligible.size, n_snps + 1).astype(int)
    out = []
    for k in range(n_snps):
        quarter = (edges[k + 1] - edges[k]) // 4
        pos = int(eligible[rng.integers(edges[k] + quarter, edges[k + 1] - quarter)])
        ref = int(codes[pos])
        ts = int(transition[ref])
        choices = [ts] + [b for b in range(4) if b not in (ref, ts)]
        alt = int(rng.choice(choices, p=[0.5, 0.25, 0.25]))
        out.append((pos, ref, alt))
    return out


def _simulate_reads(
    rng: np.random.Generator, haplotype: np.ndarray, n_reads: int, read_len: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Vectorised read sampling; returns ``(codes, quals, pos, strand)``.

    Start positions are stratified — one read per equal slice of the
    genome, jittered within it, in shuffled order — rather than uniform.
    Depth at a SNP site and the number of reads inside a repeat then vary
    little from seed to seed, so ``snp_f1`` and pairs per read (hence
    ``reads_per_s``) measure the program and not the draw.
    """
    slices = (np.arange(n_reads) + rng.random(n_reads)) / n_reads
    pos = rng.permutation((slices * (haplotype.size - read_len + 1)).astype(np.int64))
    strand = np.where(rng.random(n_reads) < 0.5, -1, 1)
    codes = haplotype[pos[:, None] + np.arange(read_len)[None, :]]
    rc = strand == -1
    codes[rc] = 3 - codes[rc][:, ::-1]
    frac = np.linspace(0.0, 1.0, read_len) ** RAMP
    errors = START_ERROR + (END_ERROR - START_ERROR) * frac
    miss = rng.random((n_reads, read_len)) < errors[None, :]
    codes[miss] = (codes[miss] + rng.integers(1, 4, size=int(miss.sum()))) % 4
    phred = -10.0 * np.log10(errors)[None, :] + rng.normal(
        0.0, QUALITY_NOISE_SD, size=(n_reads, read_len)
    )
    quals = np.clip(np.rint(phred), 2, MAX_QUALITY).astype(np.uint8)
    return codes.astype(np.uint8), quals, pos, strand


def _write_fasta(path: Path, name: str, codes: np.ndarray) -> None:
    seq = np.frombuffer(BASES.encode(), dtype=np.uint8)[codes].tobytes().decode()
    with open(path, "w") as fh:
        fh.write(f">{name}\n")
        for start in range(0, len(seq), FASTA_WIDTH):
            fh.write(seq[start : start + FASTA_WIDTH] + "\n")


def generate(directory: Path, seed: int, spec: Spec = Spec()) -> Inputs:
    """Write the input files for ``seed`` into ``directory``.

    Four independent RNG streams (target, SNP sites, reads, decoy) derive
    from ``seed``, so the same seed always gives the same files.
    """
    directory.mkdir(parents=True, exist_ok=True)
    streams = [np.random.default_rng([seed, k]) for k in range(4)]
    target, repeats = _genome(
        streams[0], spec.target_len, spec.target_repeats, spec.target_repeat_len,
        scrub_k=SCRUB_K,
    )
    snps = _plant_snps(streams[1], target, spec.n_snps, spec.read_len, repeats)
    haplotype = target.copy()
    for pos, _, alt in snps:
        haplotype[pos] = alt
    codes, quals, pos, strand = _simulate_reads(
        streams[2], haplotype, spec.n_reads, spec.read_len
    )
    decoy, _ = _genome(
        streams[3], spec.decoy_len, spec.decoy_repeats, spec.decoy_repeat_len
    )

    inputs = Inputs(
        directory=directory,
        ref=directory / "ref.fa",
        ref_decoy=directory / "ref_decoy.fa",
        reads=directory / "reads.fq",
        truth=directory / "truth.tsv",
        origins=directory / "origins.tsv",
        n_reads=spec.n_reads,
    )
    _write_fasta(inputs.ref, "chrX_target", target)
    _write_fasta(inputs.ref_decoy, "chrX_target_decoy", np.concatenate([target, decoy]))
    letters = np.frombuffer(BASES.encode(), dtype=np.uint8)
    with open(inputs.reads, "w") as fh:
        for i in range(spec.n_reads):
            seq = letters[codes[i]].tobytes().decode()
            qual = (quals[i] + 33).tobytes().decode()
            fh.write(f"@sim_{i}\n{seq}\n+\n{qual}\n")
    with open(inputs.truth, "w") as fh:
        fh.write("pos\tref\talt\tgenotype\n")
        for p, ref, alt in snps:
            fh.write(f"{p}\t{BASES[ref]}\t{BASES[alt]}\thom\n")
    with open(inputs.origins, "w") as fh:
        fh.write("name\tpos\tstrand\n")
        for i in range(spec.n_reads):
            fh.write(f"sim_{i}\t{int(pos[i])}\t{int(strand[i])}\n")
    return inputs


def read_truth(path: Path) -> "dict[int, str]":
    """``{pos: alt}`` from ``truth.tsv``."""
    with open(path) as fh:
        next(fh)
        return {int(p): alt for p, _, alt, _ in (ln.split("\t") for ln in fh)}


def read_origins(path: Path) -> "list[tuple[int, int]]":
    """``(pos, strand)`` per read, in FASTQ order, from ``origins.tsv``."""
    with open(path) as fh:
        next(fh)
        return [(int(p), int(s)) for _, p, s in (ln.split("\t") for ln in fh)]
