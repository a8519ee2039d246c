"""The shared scaled-down chrX workload.

The paper's accuracy study: human chrX (155 Mbp), 14,501 evenly spaced dbSNP
sites, 31 M Illumina 62-bp reads at ~12x.  Scaled presets keep read length,
coverage, error profile and the evenly-spaced-SNP construction, shrinking
only the genome (and the SNP count with it — at a *higher* density than the
paper's 1/10.7 kb so the scaled truth set stays statistically meaningful;
density does not affect per-site calling behaviour at these spacings).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.genome.fastq import Read
from repro.genome.reference import Reference
from repro.genome.variants import VariantCatalog, apply_variants, generate_snp_catalog
from repro.simulate.error_model import IlluminaErrorModel
from repro.simulate.genome_sim import GenomeSpec, simulate_genome
from repro.simulate.read_sim import ReadSimSpec, ReadSimulator

#: Preset sizes: (genome length, SNP count, coverage).
SCALES: dict[str, tuple[int, int, float]] = {
    "tiny": (10_000, 12, 12.0),
    "small": (25_000, 25, 10.0),
    "bench": (60_000, 60, 12.0),
    "large": (150_000, 150, 12.0),
}


@dataclass
class Workload:
    """A fully materialised experiment input.

    ``systematic_positions`` lists the planted systematic-miscall sites
    (empty unless requested) so evaluations can attribute false positives.
    """

    reference: Reference
    catalog: VariantCatalog
    reads: "list[Read]"
    scale: str
    seed: int
    systematic_positions: "list[int]" = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.systematic_positions is None:
            self.systematic_positions = []

    @property
    def n_reads(self) -> int:
        return len(self.reads)

    @property
    def coverage(self) -> float:
        if not self.reads:
            return 0.0
        return self.n_reads * len(self.reads[0]) / len(self.reference)


def build_workload(
    scale: str = "small",
    seed: int = 2012,
    ploidy: int = 1,
    het_fraction: float = 0.0,
    read_length: int = 62,
    coverage_override: float | None = None,
    error_model: IlluminaErrorModel | None = None,
    n_systematic_sites: int = 0,
    systematic_miscall_prob: float = 0.65,
) -> Workload:
    """Build the deterministic scaled workload for one experiment.

    The three RNG streams (genome, catalog, reads) derive from ``seed`` with
    fixed offsets so any component can be regenerated independently.
    ``coverage_override`` / ``error_model`` replace the preset's defaults —
    the ablation harness uses them to build *harder* variants (lower depth,
    noisier 3' ends) where the mechanisms under test actually separate.
    """
    if scale not in SCALES:
        raise ConfigError(f"unknown scale {scale!r}; choose from {sorted(SCALES)}")
    length, n_snps, coverage = SCALES[scale]
    if coverage_override is not None:
        if coverage_override <= 0:
            raise ConfigError("coverage_override must be positive")
        coverage = coverage_override
    n_repeats = max(2, length // 15_000)
    genome_spec = GenomeSpec(
        length=length,
        n_repeats=n_repeats,
        repeat_length=min(400, max(150, length // 100)),
        repeat_divergence=0.02,
    )
    reference, _repeats = simulate_genome(genome_spec, seed=seed, name=f"chrX_{scale}")
    catalog = generate_snp_catalog(
        reference,
        n_snps=n_snps,
        seed=seed + 1,
        het_fraction=het_fraction,
        min_margin=read_length,
    )
    haplotypes = apply_variants(reference, catalog, ploidy=ploidy)
    sim = ReadSimulator(
        haplotypes,
        ReadSimSpec(
            read_length=read_length,
            coverage=coverage,
            error_model=error_model or IlluminaErrorModel(),
            n_systematic_sites=n_systematic_sites,
            systematic_miscall_prob=systematic_miscall_prob,
        ),
        seed=seed + 2,
        systematic_exclude=catalog.positions.tolist(),
    )
    return Workload(
        reference=reference,
        catalog=catalog,
        reads=sim.simulate(),
        scale=scale,
        seed=seed,
        systematic_positions=sim.systematic_positions.tolist(),
    )
