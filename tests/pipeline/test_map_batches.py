"""``GnumapSnp.map_batches``: the one read→evidence loop.

Every identity claim the drivers make (pool == serial, paired and SAM on
the shared loop, staged == one-shot) rests on one property: what a read
contributes does not depend on which other reads share its kernel call.
"""

import functools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.workload import build_workload
from repro.genome.fastq import Read
from repro.observability import scope
from repro.pipeline.config import PipelineConfig
from repro.pipeline.evidence import read_slices
from repro.pipeline.gnumap import GnumapSnp, MappingStats


@functools.lru_cache(maxsize=None)
def _workload():
    return build_workload(scale="tiny", seed=31)


@functools.lru_cache(maxsize=None)
def _pipe(band_mode: str, batch_size: int) -> GnumapSnp:
    return GnumapSnp(
        _workload().reference,
        PipelineConfig(band_mode=band_mode, batch_size=batch_size),
    )


def _per_read(pipe: GnumapSnp, reads: "list[Read]") -> "dict[str, tuple[bytes, bytes]]":
    """``(z bytes, loglik bytes)`` of every mapped read, by name."""
    out = {}
    for evidence in pipe.map_batches(reads):
        for read, at in read_slices(evidence.groups):
            name = reads[read].name
            assert name not in out, "a read's pairs must share one kernel call"
            out[name] = (evidence.z[at].tobytes(), evidence.loglik[at].tobytes())
    return out


@settings(max_examples=40, deadline=None)
@given(
    picks=st.lists(st.integers(0, 1199), min_size=2, max_size=24, unique=True),
    split=st.integers(0, 24),
    band_mode=st.sampled_from(["off", "adaptive"]),
    batch_size=st.sampled_from([5, 512]),
    trim=st.booleans(),
)
def test_evidence_is_batch_composition_invariant(picks, split, band_mode, batch_size, trim):
    """A read's ``(z, loglik)`` bytes are the same alone, inside a block and
    under any split of the block — full and adaptive-band kernels, whatever
    the flush rule cuts (small ``batch_size``, mixed read lengths)."""
    pipe = _pipe(band_mode, batch_size)
    reads = [_workload().reads[i] for i in picks]
    if trim:  # every third read 50 bp: the length-change flush fires
        reads = [
            Read(r.name, r.codes[:50], r.quals[:50]) if i % 3 == 0 else r
            for i, r in enumerate(reads)
        ]
    block = _per_read(pipe, reads)
    alone = {}
    for read in reads:
        alone.update(_per_read(pipe, [read]))
    cut = split % (len(reads) + 1)
    halves = {**_per_read(pipe, reads[:cut]), **_per_read(pipe, reads[cut:])}
    assert block == alone == halves


def test_kernel_calls_are_cut_by_the_flush_rule():
    """A kernel call closes before a read that finds ``batch_size`` pairs
    stacked or has another length — wherever the 5-read seed blocks end,
    and when ``align_seeded`` gets the reads seeded as one block."""
    pipe = _pipe("off", 5)
    reads = [
        Read(r.name, r.codes[:50], r.quals[:50]) if i % 7 == 0 else r
        for i, r in enumerate(_workload().reads[:60])
    ]
    sizes, read_len = [], None
    for read, candidates in zip(reads, pipe.seeder.candidates_batch(reads)):
        if not candidates:
            continue
        if sizes and len(read) == read_len and sizes[-1] < 5:
            sizes[-1] += len(candidates)
        else:
            sizes.append(len(candidates))
        read_len = len(read)
    with scope() as reg:
        got = [e.loglik.size for e in pipe.map_batches(reads)]
    stats = MappingStats.of(reg.snapshot_values())
    one_block = pipe.align_seeded(reads, [pipe.seeder.seed(reads)])
    assert got == [e.loglik.size for e in one_block] == sizes
    assert stats.n_batches == len(sizes) > 12 and stats.n_pairs == sum(sizes)


def test_stats_publish_what_each_call_added():
    """Two ``map_batches`` calls (the paired driver feeds a block per call)
    add every count once: each call counts its own reads, pairs and
    kernel calls, and mapped reads are those with a candidate."""
    pipe = _pipe("off", 512)
    parts = (_workload().reads[:80], _workload().reads[80:200])
    with scope() as reg:
        for part in parts:
            for _ in pipe.map_batches(part):
                pass
        stats = MappingStats.of(reg.snapshot_values())
    candidates = [c for part in parts for c in pipe.seeder.candidates_batch(part)]
    assert stats.n_reads == 200
    assert stats.n_mapped == sum(1 for c in candidates if c)
    assert stats.n_mapped + stats.n_unmapped == 200
    assert stats.n_pairs == sum(map(len, candidates))
    assert stats.n_batches == 2
