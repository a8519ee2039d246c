import pytest

from repro.parallel.cluster import Cluster
from repro.pipeline.gnumap import GnumapSnp
from repro.pipeline.parallel_driver import run_memory_spread


@pytest.fixture
def assert_one_rank_spread_is_serial(monkeypatch):
    """Check that a one-rank ``run_memory_spread`` deposits serial's
    accumulator bytes: ``to_buffers()`` equal, buffer by buffer."""

    def check(reference, reads, config):
        made = []
        real = GnumapSnp.accumulator_or_new

        def recording(self, accumulator):
            made.append(real(self, accumulator))
            return made[-1]

        with monkeypatch.context() as patch:
            patch.setattr(GnumapSnp, "accumulator_or_new", recording)
            Cluster(1).run(run_memory_spread, reference, reads, config)
        (spread,) = made
        want = GnumapSnp(reference, config).map_reads(reads).to_buffers()
        got = spread.to_buffers()
        assert want.keys() == got.keys()
        for key in want:
            assert want[key].tobytes() == got[key].tobytes(), key

    return check
