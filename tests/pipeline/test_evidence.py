"""``PairStack``: the array-built stack and its block-built PWMs against the
per-read oracle; ``deposit`` forming its own columns."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.fastq import MAX_QUALITY, Read
from repro.index.seeding import SeedBlock
from repro.memory.base import make_accumulator
from repro.phmm.pwm import flat_pwm, pwm_from_read, reverse_complement_pwm
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairEvidence, PairStack, cut_windows, deposit


def _read(rng, name, n):
    return Read(
        name,
        rng.integers(0, 4, n).astype(np.uint8),
        rng.integers(0, MAX_QUALITY + 1, n).astype(np.uint8),
    )


@st.composite
def stacked_reads(draw):
    """Equal-length reads with 0-4 candidates each on either strand (at
    least one candidate overall), as the seeder's parallel arrays; a read
    without candidates has another length, as an unmapped read may."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=40))
    counts = rng.integers(0, 5, draw(st.integers(min_value=1, max_value=8)))
    counts[rng.integers(counts.size)] += 1
    reads = [_read(rng, f"r{i}", n if c else n + 3) for i, c in enumerate(counts)]
    read = np.repeat(np.arange(counts.size), counts)
    start = rng.integers(-n, 300, read.size)
    diagonal = start + rng.integers(-5, 6, read.size)
    seeded = SeedBlock(
        read, start, rng.choice([-1, 1], read.size), np.ones_like(read), diagonal
    )
    return reads, seeded


@settings(max_examples=60, deadline=None)
@given(stacked_reads(), st.booleans())
def test_stack_pwms_equal_per_read_pwms(case, quality_aware):
    reads, seeded = case
    cfg = PipelineConfig(quality_aware=quality_aware)
    stack = PairStack(reads, seeded, cfg)
    want = []
    for r, strand in zip(seeded.read.tolist(), seeded.strand.tolist()):
        forward = pwm_from_read(reads[r]) if quality_aware else flat_pwm(reads[r].codes)
        want.append(forward if strand == 1 else reverse_complement_pwm(forward))
    # The band centre follows the seed diagonal, not a clamped start.
    np.testing.assert_array_equal(
        stack.centers, cfg.pad + seeded.diagonal - seeded.start
    )
    np.testing.assert_array_equal(stack.pwms(quality_aware), np.stack(want))
    genome = np.zeros(300, dtype=np.uint8)
    pwms, windows, valid = cut_windows(genome, stack, cfg)
    np.testing.assert_array_equal(pwms, np.stack(want))
    width = len(stack.reads[0]) + 2 * cfg.pad
    assert windows.shape == valid.shape == (len(want), width)
    cols = (seeded.start - cfg.pad)[:, None] + np.arange(width)
    np.testing.assert_array_equal(valid, (cols >= 0) & (cols < genome.size))


def test_stack_takes_any_slice_of_a_block():
    """A stack cut from the middle of a block converts only the reads its
    pairs name."""
    rng = np.random.default_rng(5)
    reads = [_read(rng, f"r{i}", 20) for i in range(6)]
    read = np.array([0, 0, 2, 3, 3, 5])
    seeded = SeedBlock(
        read, np.arange(6) * 10, np.ones(6, np.int64), np.ones(6, np.int64),
        np.arange(6) * 10,
    )
    stack = PairStack(reads, seeded[2:5], PipelineConfig())
    assert [r.name for r in stack.reads] == ["r2", "r3"]
    assert stack.rows.tolist() == [0, 1, 1]
    assert stack.seeded.read.tolist() == [2, 3, 3]


def test_deposit_forms_columns_from_starts():
    """``deposit`` places window column j of a pair at ``start - pad + j``
    and drops the columns past either genome edge."""
    cfg = PipelineConfig()
    width = 4 + 2 * cfg.pad
    starts = np.array([-cfg.pad - 2, 10, 50 - 3])
    z = np.zeros((3, width, 5))
    z[:, :, 0] = 1.0
    evidence = PairEvidence(
        z, np.zeros(3), starts, np.ones(3, np.int64), np.arange(3)
    )
    acc = make_accumulator("NORM", 50)
    deposit(acc, evidence, np.array([1.0, 2.0, 0.0]), cfg)
    want = np.zeros(50)
    lo = starts - cfg.pad
    want[0 : lo[0] + width] += 1.0
    want[lo[1] : lo[1] + width] += 2.0
    np.testing.assert_array_equal(acc.snapshot()[:, 0], want)
