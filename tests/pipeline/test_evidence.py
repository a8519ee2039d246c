"""``PairStack``: the block-built PWMs against the per-read oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.genome.fastq import MAX_QUALITY, Read
from repro.index.seeding import CandidateRegion
from repro.phmm.pwm import flat_pwm, pwm_from_read, reverse_complement_pwm
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import PairStack, cut_windows


@st.composite
def stacked_reads(draw):
    """Equal-length reads, each with 1-4 candidates on either strand."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = draw(st.integers(min_value=1, max_value=40))
    reads = [
        Read(
            f"r{i}",
            rng.integers(0, 4, n).astype(np.uint8),
            rng.integers(0, MAX_QUALITY + 1, n).astype(np.uint8),
        )
        for i in range(draw(st.integers(min_value=1, max_value=8)))
    ]
    candidates = [
        [
            CandidateRegion(int(rng.integers(-n, 300)), int(rng.choice([-1, 1])), 1)
            for _ in range(int(rng.integers(1, 5)))
        ]
        for _ in reads
    ]
    return reads, candidates


@settings(max_examples=60, deadline=None)
@given(stacked_reads(), st.booleans())
def test_stack_pwms_equal_per_read_pwms(case, quality_aware):
    reads, candidates = case
    cfg = PipelineConfig(quality_aware=quality_aware)
    stack = PairStack()
    for group, (read, cands) in enumerate(zip(reads, candidates)):
        stack.add_read(read, cands, cfg, group)
    want, want_groups = [], []
    for group, (read, cands) in enumerate(zip(reads, candidates)):
        forward = pwm_from_read(read) if quality_aware else flat_pwm(read.codes)
        for cand in cands:
            want.append(forward if cand.strand == 1 else reverse_complement_pwm(forward))
            want_groups.append(group)
    assert len(stack) == len(want)
    assert stack.groups == want_groups
    np.testing.assert_array_equal(stack.pwms(quality_aware), np.stack(want))
    genome = np.zeros(300, dtype=np.uint8)
    pwms, starts, windows, valid = cut_windows(genome, stack, cfg)
    np.testing.assert_array_equal(pwms, np.stack(want))
    assert starts.tolist() == [c.start for cands in candidates for c in cands]
    assert windows.shape == valid.shape == (len(want), len(reads[0]) + 2 * cfg.pad)
