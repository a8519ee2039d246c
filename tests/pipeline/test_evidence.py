"""``PairStack``: the array-built stack and its block-built PWMs against the
per-read oracle; ``deposit`` forming its own columns and adding a batch's
live cells in one call, against the per-pair loop."""

import numpy as np
import pytest
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
    pwms, windows = cut_windows(genome, stack, cfg)
    np.testing.assert_array_equal(pwms, np.stack(want))
    assert windows.shape == (len(want), len(stack.reads[0]) + 2 * cfg.pad)


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


# -- deposit in one call == the per-pair loop ---------------------------------

KINDS = ["NORM", "CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED"]


def deposit_by_loop(acc, evidence, weights, cfg):
    """The per-pair loop ``deposit`` once ran for quantising accumulators:
    one ``add`` per pair, in pair order."""
    zw = evidence.z * weights[:, None, None]
    cols = (evidence.starts - cfg.pad)[:, None] + np.arange(zw.shape[1])[None, :]
    live = (cols >= 0) & (cols < acc.length) & (weights[:, None] > 0)
    for b in range(zw.shape[0]):
        m = live[b]
        if m.any():
            acc.add(cols[b][m], zw[b][m])


def _evidence(z, starts):
    n = len(starts)
    return PairEvidence(
        z, np.zeros(n), np.asarray(starts, dtype=np.int64), np.ones(n, np.int64),
        np.arange(n),
    )


def _assert_same_buffers(got, want):
    assert got.to_buffers().keys() == want.to_buffers().keys()
    for key, value in want.to_buffers().items():
        np.testing.assert_array_equal(got.to_buffers()[key], value, err_msg=key)


def _recorded_adds(acc):
    """Make ``acc`` record the positions and rows of every ``add`` it is given."""
    calls, add = [], acc.add

    def recording(positions, z):
        calls.append((np.array(positions), np.array(z)))
        add(positions, z)

    acc.add = recording
    return calls


@st.composite
def deposit_batches(draw):
    """A genome length and 1-3 batches of weighted pairs: starts drawn from a
    few values (duplicates, heavy overlap) reaching past both genome edges,
    z with zero cells, weights zero, negative zero, underflowing and plain."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    cfg = PipelineConfig()
    length = draw(st.integers(min_value=1, max_value=90))
    width = draw(st.integers(min_value=1, max_value=12)) + 2 * cfg.pad
    batches = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        n = draw(st.integers(min_value=1, max_value=14))
        spots = rng.integers(-width - 2, length + cfg.pad + 2, draw(st.integers(1, 4)))
        z = rng.dirichlet(np.full(5, 0.4), (n, width)) * rng.random((n, width, 1))
        z[rng.random((n, width)) < 0.2] = 0.0
        weights = rng.choice([0.0, -0.0, 5e-324, 1e-3, 0.25, 1.0], n) * rng.choice(
            [1.0, rng.random()], n
        )
        if draw(st.booleans()):
            weights[:] = 0.0
        batches.append((_evidence(z, rng.choice(spots, n)), weights))
    return length, batches


@settings(max_examples=120, deadline=None)
@given(deposit_batches(), st.sampled_from(KINDS))
def test_deposit_equals_per_pair_loop(case, kind):
    """Whatever the accumulator, ``deposit`` leaves the bytes the per-pair
    loop leaves — under a config that names another accumulator."""
    length, batches = case
    cfg = PipelineConfig()
    got, want = make_accumulator(kind, length), make_accumulator(kind, length)
    for evidence, weights in batches:
        deposit(got, evidence, weights, cfg)
        deposit_by_loop(want, evidence, weights, cfg)
    _assert_same_buffers(got, want)


@pytest.mark.parametrize("kind", KINDS)
def test_deposit_adds_once_per_batch_in_pair_order(kind):
    """Every accumulator sees one ``add`` per batch whose rows are the live
    cells in pair order (a column named once per pair that reaches it), each
    row its cell's z times its pair's weight."""
    cfg = PipelineConfig()
    rng = np.random.default_rng(24)
    width = 6 + 2 * cfg.pad
    starts = np.array([-30, 3, 3, 5, 9, 9, 9, 20, 41, 200])
    weights = np.array([1.0, 1.0, 0.5, 0.0, 1.0, 0.2, 1.0, 1.0, 1.0, 1.0])
    z = rng.dirichlet(np.ones(5), (starts.size, width))
    acc = make_accumulator(kind, 50)
    calls = _recorded_adds(acc)
    deposit(acc, _evidence(z, starts), weights, cfg)
    cols = (starts - cfg.pad)[:, None] + np.arange(width)
    live = (cols >= 0) & (cols < 50) & (weights[:, None] > 0)
    assert np.bincount(cols[live]).max() > 1  # columns repeat within the call
    [(positions, rows)] = calls
    np.testing.assert_array_equal(positions, cols[live])
    np.testing.assert_array_equal(rows, (z * weights[:, None, None])[live])
    calls.clear()
    deposit(acc, _evidence(z, starts), np.zeros(starts.size), cfg)
    assert [positions.size for positions, _ in calls] == [0]


def test_deposit_schedule_follows_the_accumulator_not_the_config():
    """Reads mapped into a handed-in CHARDISC accumulator under a default
    (NORM) config end in the state a CHARDISC-configured run reaches."""
    from repro.experiments.workload import build_workload
    from repro.pipeline.gnumap import GnumapSnp

    wl = build_workload(scale="tiny", seed=24)
    reads, n = wl.reads[:120], len(wl.reference)
    handed = GnumapSnp(wl.reference, PipelineConfig()).map_reads(
        reads, make_accumulator("CHARDISC", n)
    )
    configured = GnumapSnp(
        wl.reference, PipelineConfig(accumulator="CHARDISC")
    ).map_reads(reads)
    _assert_same_buffers(handed, configured)
