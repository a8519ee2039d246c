"""One record of a run's mapping counts: the ``pipeline.*`` counters.

Every executor — serial, the pool, a staged stream and the paper's two
cluster programs — must report what serial reports, on input that holds
reads with no candidate and a read overhanging the genome's left end.
"""

import numpy as np
import pytest

from repro.api import Engine
from repro.experiments.workload import build_workload
from repro.genome.fastq import Read
from repro.observability import scope
from repro.parallel.cluster import Cluster
from repro.pipeline import parallel_driver
from repro.pipeline.config import ParallelConfig, PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.online import OnlineGnumap

COUNTS = ("pipeline.reads", "pipeline.reads_mapped", "pipeline.reads_unmapped", "pipeline.pairs")


@pytest.fixture(scope="module")
def case():
    """``tiny`` seed 7, then 200 random 62 bp reads, then a read whose first
    five bases are junk and whose other 57 are the genome's first 57."""
    wl = build_workload(scale="tiny", seed=7)
    rng = np.random.default_rng(7)
    quals = np.full(62, 38, dtype=np.uint8)
    junk = [
        Read(f"junk{i}", rng.integers(0, 4, 62).astype(np.uint8), quals)
        for i in range(200)
    ]
    head = np.asarray(wl.reference.codes[:57])
    overhang = Read("overhang", np.concatenate([(head[:5] + 1) % 4, head]), quals)
    return wl.reference, [*wl.reads, *junk, overhang]


def _counts(run) -> "dict[str, float]":
    with scope() as reg:
        run()
    snap = reg.snapshot()
    return {name: snap.counter(name) for name in COUNTS}


@pytest.fixture(scope="module")
def serial(case):
    reference, reads = case
    return _counts(lambda: GnumapSnp(reference, PipelineConfig()).run(reads))


def _engine(reference, reads):
    config = PipelineConfig(parallel=ParallelConfig(start_method="fork"))
    with Engine(reference, config, workers=2) as engine:
        engine.run(reads)


def _online(reference, reads):
    config = PipelineConfig(parallel=ParallelConfig(start_method="fork"))
    third = -(-len(reads) // 3)
    with OnlineGnumap(reference, config, workers=2) as stream:
        for start in range(0, len(reads), third):
            stream.feed(reads[start : start + third])
        assert stream.stats.n_reads == len(reads)


def _cluster(program, ranks, *groups):
    def run(reference, reads):
        Cluster(ranks).run(program, reference, reads, PipelineConfig(), None, *groups)

    return run


RUNS = {
    "engine_w2": _engine,
    "online_3_feeds": _online,
    "read_spread_P2": _cluster(parallel_driver.run_read_spread, 2),
    "read_spread_P4": _cluster(parallel_driver.run_read_spread, 4),
    "memory_spread_P2": _cluster(parallel_driver.run_memory_spread, 2),
    "memory_spread_P4": _cluster(parallel_driver.run_memory_spread, 4),
    "memory_spread_P4G2": _cluster(parallel_driver.run_memory_spread, 4, 2),
}


def test_the_case_has_unmapped_reads(case, serial):
    _, reads = case
    assert serial["pipeline.reads"] == len(reads)
    assert serial["pipeline.reads_unmapped"] > 100
    assert serial["pipeline.reads_mapped"] + serial["pipeline.reads_unmapped"] == len(reads)


@pytest.mark.parametrize("name", list(RUNS))
def test_every_executor_counts_as_serial(case, serial, name):
    assert _counts(lambda: RUNS[name](*case)) == serial


@pytest.mark.parametrize("accumulator", ["NORM", "CHARDISC", "CENTDISC"])
def test_one_rank_memory_spread_deposits_serials_bytes(
    case, accumulator, assert_one_rank_spread_is_serial
):
    """One rank owning the whole genome weighs every read as serial does,
    so it deposits serial's bytes — the left-overhanging read included,
    whose candidate starts left of position 0 and is owned by the first
    segment."""
    assert_one_rank_spread_is_serial(*case, PipelineConfig(accumulator=accumulator))
