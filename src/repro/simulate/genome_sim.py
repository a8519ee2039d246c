"""Synthetic reference genomes with repeats and GC bias.

The paper stresses that SNP calling is hardest "in repeat regions or in areas
with low read coverage", so the synthetic reference must contain genuine
repeats — regions copied verbatim (or near-verbatim) elsewhere in the genome,
which create multi-mapping reads and exercise the probabilistic multiread
weighting that distinguishes GNUMAP-SNP from single-best-hit callers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError
from repro.genome.reference import Reference
from repro.util.rng import resolve_rng


@dataclass(frozen=True)
class RepeatRegion:
    """A planted repeat: ``copy_start`` holds a copy of ``[src_start, src_start+length)``."""

    src_start: int
    copy_start: int
    length: int
    divergence: float


@dataclass
class GenomeSpec:
    """Parameters for :func:`simulate_genome`.

    Attributes
    ----------
    length:
        Genome length in bases.
    gc_content:
        Target GC fraction of the random background.
    n_repeats:
        Number of planted repeat pairs.
    repeat_length:
        Length of each repeat unit.
    repeat_divergence:
        Per-base substitution probability applied to the repeat *copy* (0
        gives exact repeats; a few percent mimics diverged paralogs).
    n_run_length:
        If positive, a single run of ``N`` bases of this length is planted
        (telomere/centromere gap stand-in) to exercise N handling.
    """

    length: int = 100_000
    gc_content: float = 0.41  # human chrX-like
    n_repeats: int = 4
    repeat_length: int = 400
    repeat_divergence: float = 0.02
    n_run_length: int = 0

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigError(f"genome length must be positive, got {self.length}")
        if not 0.0 < self.gc_content < 1.0:
            raise ConfigError(f"gc_content must be in (0,1), got {self.gc_content}")
        if self.n_repeats < 0 or self.repeat_length < 0:
            raise ConfigError("repeat counts/lengths must be non-negative")
        if not 0.0 <= self.repeat_divergence <= 1.0:
            raise ConfigError("repeat_divergence must be in [0,1]")
        if self.n_run_length < 0:
            raise ConfigError("n_run_length must be non-negative")
        need = self.n_repeats * 2 * self.repeat_length + self.n_run_length
        if need > self.length:
            raise ConfigError(
                f"genome of {self.length} bases cannot host "
                f"{self.n_repeats} repeat pairs of {self.repeat_length} "
                f"plus an N run of {self.n_run_length}"
            )


def simulate_genome(
    spec: GenomeSpec,
    seed: "int | np.random.Generator | None" = None,
    name: str = "sim",
) -> tuple[Reference, list[RepeatRegion]]:
    """Generate a reference per ``spec``; returns it with the planted repeats.

    Construction: iid background with the requested GC bias, then
    ``n_repeats`` non-overlapping source/copy pairs are planted (copy =
    source with ``repeat_divergence`` substitutions), then an optional N run.
    Placement is deterministic given the seed.
    """
    rng = resolve_rng(seed)
    gc = spec.gc_content
    probs = np.array([(1 - gc) / 2, gc / 2, gc / 2, (1 - gc) / 2])
    codes = rng.choice(4, size=spec.length, p=probs).astype(np.uint8)

    repeats: list[RepeatRegion] = []
    taken: list[tuple[int, int]] = []

    def _overlaps(start: int, length: int) -> bool:
        return any(start < t_stop and start + length > t_start for t_start, t_stop in taken)

    if spec.n_repeats and spec.repeat_length:
        attempts = 0
        while len(repeats) < spec.n_repeats and attempts < 1000 * spec.n_repeats:
            attempts += 1
            src = int(rng.integers(0, spec.length - spec.repeat_length + 1))
            dst = int(rng.integers(0, spec.length - spec.repeat_length + 1))
            if abs(src - dst) < spec.repeat_length:
                continue
            if _overlaps(src, spec.repeat_length) or _overlaps(dst, spec.repeat_length):
                continue
            unit = codes[src : src + spec.repeat_length].copy()
            if spec.repeat_divergence > 0:
                flips = rng.random(spec.repeat_length) < spec.repeat_divergence
                if flips.any():
                    # substitute with a uniformly chosen *different* base
                    shift = rng.integers(1, 4, size=int(flips.sum())).astype(np.uint8)
                    unit[flips] = (unit[flips] + shift) % 4
            codes[dst : dst + spec.repeat_length] = unit
            taken.append((src, src + spec.repeat_length))
            taken.append((dst, dst + spec.repeat_length))
            repeats.append(
                RepeatRegion(
                    src_start=src,
                    copy_start=dst,
                    length=spec.repeat_length,
                    divergence=spec.repeat_divergence,
                )
            )
        if len(repeats) < spec.n_repeats:
            raise ConfigError(
                f"could not place {spec.n_repeats} non-overlapping repeats "
                f"of {spec.repeat_length} bases in {spec.length} bases"
            )

    if spec.n_run_length:
        for _ in range(1000):
            start = int(rng.integers(0, spec.length - spec.n_run_length + 1))
            if not _overlaps(start, spec.n_run_length):
                codes[start : start + spec.n_run_length] = 4  # N
                taken.append((start, start + spec.n_run_length))
                break
        else:
            raise ConfigError("could not place the requested N run")

    return Reference(codes, name=name), repeats
