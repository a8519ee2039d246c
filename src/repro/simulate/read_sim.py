"""Read simulator — the MetaSim substitute.

Samples fixed-length reads uniformly from one or two haplotypes (monoploid /
diploid individuals), on either strand, and corrupts them through an
:class:`~repro.simulate.error_model.IlluminaErrorModel`.  Every read records
its true origin (`true_pos`, `true_strand`) for evaluation.

The paper's workload — 31 M 62-bp reads at ~12x over chrX — scales down to
"coverage x genome_length / read_length" reads over the synthetic genome; the
:class:`ReadSimSpec` speaks in coverage so experiments stay expressed in the
paper's own units.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from repro.errors import ConfigError
from repro.genome.alphabet import N, reverse_complement
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.simulate.error_model import IlluminaErrorModel
from repro.util.rng import resolve_rng


@dataclass
class ReadSimSpec:
    """Parameters for :class:`ReadSimulator`.

    ``coverage`` and ``n_reads`` are alternatives: set exactly one (the other
    left as ``None``); coverage converts to
    ``ceil(coverage * genome_length / read_length)`` reads.

    ``n_systematic_sites`` plants context-specific *systematic* miscall
    sites: genome positions where every covering read miscalls to the same
    wrong base with probability ``systematic_miscall_prob``, reported at the
    low quality ``systematic_quality`` — the real-Illumina failure mode
    where quality-aware evidence weighting earns its keep (random uniform
    errors never form a coherent false allele; systematic ones do).
    """

    read_length: int = 62
    coverage: float | None = 12.0
    n_reads: int | None = None
    both_strands: bool = True
    error_model: IlluminaErrorModel = field(default_factory=IlluminaErrorModel)
    n_systematic_sites: int = 0
    systematic_miscall_prob: float = 0.35
    systematic_quality: int = 5

    def __post_init__(self) -> None:
        if self.read_length <= 0:
            raise ConfigError(f"read_length must be positive, got {self.read_length}")
        if (self.coverage is None) == (self.n_reads is None):
            raise ConfigError("set exactly one of coverage / n_reads")
        if self.coverage is not None and self.coverage <= 0:
            raise ConfigError(f"coverage must be positive, got {self.coverage}")
        if self.n_reads is not None and self.n_reads < 0:
            raise ConfigError(f"n_reads must be non-negative, got {self.n_reads}")
        if self.n_systematic_sites < 0:
            raise ConfigError("n_systematic_sites must be non-negative")
        if not 0.0 <= self.systematic_miscall_prob <= 1.0:
            raise ConfigError("systematic_miscall_prob must be in [0, 1]")
        if not 2 <= self.systematic_quality <= 41:
            raise ConfigError("systematic_quality must be in [2, 41]")

    def resolve_n_reads(self, genome_length: int) -> int:
        """Number of reads to simulate for a genome of ``genome_length``."""
        if self.n_reads is not None:
            return self.n_reads
        return int(np.ceil(self.coverage * genome_length / self.read_length))


class ReadSimulator:
    """Samples error-corrupted reads from an individual's haplotypes.

    Parameters
    ----------
    haplotypes:
        One (monoploid) or two (diploid) same-length references — normally
        the output of :func:`repro.genome.variants.apply_variants`.
    spec:
        Sampling parameters.
    seed:
        Deterministic seed / generator.
    """

    def __init__(
        self,
        haplotypes: Sequence[Reference],
        spec: ReadSimSpec,
        seed: "int | np.random.Generator | None" = None,
        systematic_exclude: "Sequence[int] | None" = None,
    ) -> None:
        """``systematic_exclude`` bars positions (e.g. planted SNP sites)
        from being chosen as systematic-error sites, keeping artefact and
        variant signals separable in evaluations."""
        if not haplotypes:
            raise ConfigError("need at least one haplotype")
        lengths = {len(h) for h in haplotypes}
        if len(lengths) != 1:
            raise ConfigError("haplotypes must all have the same length")
        self.haplotypes = list(haplotypes)
        self.spec = spec
        self._rng = resolve_rng(seed)
        if len(self.haplotypes[0]) < spec.read_length:
            raise ConfigError(
                f"genome of {len(self.haplotypes[0])} bases shorter than "
                f"read length {spec.read_length}"
            )
        # Systematic miscall sites: fixed genome positions, each with one
        # designated wrong base (relative to haplotype 0).
        self.systematic_positions = np.empty(0, dtype=np.int64)
        self._systematic_wrong = np.empty(0, dtype=np.uint8)
        if spec.n_systematic_sites:
            glen = self.genome_length
            excluded = set(int(p) for p in (systematic_exclude or ()))
            eligible = np.setdiff1d(
                np.arange(glen, dtype=np.int64),
                np.fromiter(excluded, dtype=np.int64, count=len(excluded)),
            )
            if spec.n_systematic_sites > eligible.size:
                raise ConfigError("more systematic sites than eligible positions")
            self.systematic_positions = np.sort(
                self._rng.choice(eligible, size=spec.n_systematic_sites, replace=False)
            ).astype(np.int64)
            true_bases = self.haplotypes[0].codes[self.systematic_positions]
            shift = self._rng.integers(1, 4, size=spec.n_systematic_sites)
            self._systematic_wrong = (
                (true_bases.astype(np.int64) + shift) % 4
            ).astype(np.uint8)
            self._systematic_map = dict(
                zip(self.systematic_positions.tolist(),
                    self._systematic_wrong.tolist())
            )
        else:
            self._systematic_map = {}

    @property
    def genome_length(self) -> int:
        return len(self.haplotypes[0])

    def n_reads(self) -> int:
        """Total number of reads this simulator will produce."""
        return self.spec.resolve_n_reads(self.genome_length)

    def sample_read(self, index: int) -> Read | None:
        """Sample one read; returns ``None`` if the template window hit an N run.

        The caller (or :meth:`simulate`) retries on ``None`` — MetaSim
        similarly refuses to emit reads across assembly gaps.
        """
        spec = self.spec
        hap = self.haplotypes[int(self._rng.integers(0, len(self.haplotypes)))]
        pos = int(self._rng.integers(0, self.genome_length - spec.read_length + 1))
        template = hap.codes[pos : pos + spec.read_length]
        if (template == N).any():
            return None
        strand = 1
        if spec.both_strands and self._rng.random() < 0.5:
            strand = -1
            template = reverse_complement(template)
        codes, quals, _mask = spec.error_model.corrupt(template, self._rng)
        if self._systematic_map:
            codes, quals = self._apply_systematic(codes, quals, pos, strand)
        return Read(
            name=f"sim_{index}",
            codes=codes,
            quals=quals,
            true_pos=pos,
            true_strand=strand,
        )

    def _apply_systematic(
        self, codes: np.ndarray, quals: np.ndarray, pos: int, strand: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Overlay systematic miscalls on a sampled read.

        For each systematic genome position the read covers, the read's base
        there becomes the site's designated wrong base (complemented on the
        reverse strand) with the configured probability, and its reported
        quality drops to ``systematic_quality`` — basecallers flag these.
        """
        from repro.genome.alphabet import _COMPLEMENT

        spec = self.spec
        L = codes.size
        codes = codes.copy()
        quals = quals.copy()
        lo = np.searchsorted(self.systematic_positions, pos)
        hi = np.searchsorted(self.systematic_positions, pos + L)
        for k in range(lo, hi):
            g = int(self.systematic_positions[k])
            wrong = int(self._systematic_wrong[k])
            if strand == 1:
                offset = g - pos
                wrong_read = wrong
            else:
                offset = (pos + L - 1) - g
                wrong_read = int(_COMPLEMENT[wrong])
            if self._rng.random() < spec.systematic_miscall_prob:
                codes[offset] = wrong_read
                quals[offset] = spec.systematic_quality
        return codes, quals

    def simulate(self) -> list[Read]:
        """Produce the full read set (deterministic for a fixed seed)."""
        return list(self.iter_reads())

    def iter_reads(self) -> Iterator[Read]:
        """Yield reads one at a time; skips and retries N-spanning templates."""
        total = self.n_reads()
        emitted = 0
        attempts = 0
        max_attempts = 50 * max(total, 1) + 1000
        while emitted < total:
            attempts += 1
            if attempts > max_attempts:
                raise ConfigError(
                    "read simulation stalled — genome may be mostly N"
                )
            read = self.sample_read(emitted)
            if read is None:
                continue
            emitted += 1
            yield read
