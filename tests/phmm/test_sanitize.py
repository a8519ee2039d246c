"""Runtime numerical sanitizer: off by default, silent on clean runs,
loud (with span attribution) on corrupted values.

The seeded-fault tests patch a kernel/accumulator to inject a NaN exactly as
a numerical bug would, and assert the sanitizer converts the silent
corruption into a :class:`repro.errors.SanitizerError` naming the check and
the pipeline stage.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

import repro

from repro.errors import ReproError, SanitizerError
from repro.experiments.workload import build_workload
from repro.memory.dense import DenseAccumulator
from repro.observability import span
from repro.phmm import alignment, sanitize
from repro.phmm.alignment import align_batch
from repro.phmm.forward_backward import LaneTile, emission_table
from repro.phmm.model import PHMMParams
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


@pytest.fixture(autouse=True)
def sanitizer_off_after():
    """Every test leaves the process-global switch as it found it."""
    prev = sanitize.enabled()
    yield
    if prev:
        sanitize.enable()
    else:
        sanitize.disable()


@pytest.fixture(scope="module")
def workload():
    wl = build_workload(scale="tiny", seed=77)
    wl.reads = wl.reads[:120]
    return wl


class TestActivation:
    def test_off_by_default(self):
        assert not sanitize.enabled()

    def test_environment_does_not_switch_it_on(self):
        """The switch is ``--sanitize`` / :func:`sanitize.enable`; a spawned
        child whose environment has ``REPRO_SANITIZE=1`` still starts off."""
        env = {
            **os.environ,
            "REPRO_SANITIZE": "1",
            "PYTHONPATH": os.path.dirname(os.path.dirname(repro.__file__)),
        }
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.phmm import sanitize; print(sanitize.enabled())"],
            env=env, check=True, capture_output=True, text=True,
        )
        assert out.stdout.strip() == "False"

    def test_enable_disable(self):
        sanitize.enable()
        assert sanitize.enabled()
        sanitize.disable()
        assert not sanitize.enabled()

    def test_sanitized_context_restores(self):
        with sanitize.sanitized():
            assert sanitize.enabled()
            with sanitize.sanitized(on=False):
                assert not sanitize.enabled()
            assert sanitize.enabled()
        assert not sanitize.enabled()

    def test_cli_flag_enables(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["call", "ref.fa", "reads.fq", "--sanitize"])
        assert args.sanitize is True
        args = build_parser().parse_args(["call", "ref.fa", "reads.fq"])
        assert args.sanitize is False


class TestChecks:
    def test_check_finite_accepts_clean(self):
        sanitize.check_finite("t", "x", np.ones(4))

    def test_check_finite_rejects_nan(self):
        with pytest.raises(SanitizerError, match="non-finite"):
            sanitize.check_finite("t", "x", np.array([1.0, np.nan]))

    def test_check_finite_neg_inf_policy(self):
        arr = np.array([0.0, -np.inf])
        sanitize.check_finite("t", "x", arr, allow_neg_inf=True)
        with pytest.raises(SanitizerError):
            sanitize.check_finite("t", "x", arr)

    def test_check_non_negative(self):
        with pytest.raises(SanitizerError, match="negative probability mass"):
            sanitize.check_non_negative("t", "x", np.array([0.5, -1e-3]))

    def test_check_emissions_rejects_above_one(self):
        pstar = np.full((1, 2, 2), 0.5)
        sanitize.check_emissions(pstar)
        pstar[0, 1, 1] = 1.5
        with pytest.raises(SanitizerError, match="exceeds 1"):
            sanitize.check_emissions(pstar)

    def test_check_z_unit_mass(self):
        z = np.full((1, 3, 5), 0.2)  # sums to exactly 1 per position
        sanitize.check_z(z)
        z[0, 1, :] = 0.3  # 1.5 total
        with pytest.raises(SanitizerError, match="exceeds 1"):
            sanitize.check_z(z)

    def test_check_z_valid_mask_excuses_padding(self):
        z = np.zeros((1, 2, 5))
        z[0, 1, :] = 0.5  # 2.5 total, but masked out
        valid = np.array([[True, False]])
        sanitize.check_z(z, valid)

    def test_check_accumulator(self):
        with pytest.raises(SanitizerError, match="evidence"):
            sanitize.check_accumulator(np.array([[np.nan] * 5]), where="accumulator.add")

    def test_error_is_reproerror_with_context(self):
        with span("map_reads"):
            with span("align"):
                with pytest.raises(SanitizerError) as exc_info:
                    sanitize.check_finite("forward", "fM", np.array([np.nan]))
        err = exc_info.value
        assert isinstance(err, ReproError)
        assert err.check == "forward"
        assert err.span_path == ("map_reads", "align")
        assert "map_reads/align" in str(err)


class TestKernelHooks:
    PARAMS = PHMMParams()

    def _batch(self) -> tuple[np.ndarray, np.ndarray]:
        rng = np.random.default_rng(5)
        pwms = rng.dirichlet(np.ones(4), size=(2, 6))
        return pwms, rng.integers(0, 4, (2, 10)).astype(np.uint8)

    def test_forward_clean_passes_when_enabled(self):
        with sanitize.sanitized():
            result = align_batch(*self._batch(), self.PARAMS)
        assert np.isfinite(result.loglik).all()

    def test_corrupted_forward_raises_only_when_enabled(self, monkeypatch):
        """Seeded fault: a NaN in the lane-major table the forward pass reads,
        planted as the tile stores it (past the emission check, which sees
        the clean table)."""
        real_load = LaneTile.load

        def poisoned(tile, table, windows):
            real_load(tile, table, windows)
            tile.table[0, :, 0] = np.nan  # every code of lane 0's first row

        monkeypatch.setattr(LaneTile, "load", poisoned)
        # Default mode: the corruption flows through silently.
        result = align_batch(*self._batch(), self.PARAMS)
        assert np.isnan(result.z).any() or np.isnan(result.loglik).any()
        # Sanitized mode: the same fault is caught at the kernel boundary.
        with sanitize.sanitized():
            with pytest.raises(SanitizerError, match="forward"):
                align_batch(*self._batch(), self.PARAMS)

    def test_emission_corruption_attributed_to_stage(self, workload, monkeypatch):
        """A poisoned emission table fails inside map_reads/align."""

        def poisoned_table(pwms, params):
            table = emission_table(pwms, params)
            table.flat[0] = np.nan
            return table

        monkeypatch.setattr(alignment, "emission_table", poisoned_table)
        pipe = GnumapSnp(workload.reference, PipelineConfig())
        with sanitize.sanitized():
            with pytest.raises(SanitizerError) as exc_info:
                pipe.map_reads(workload.reads)
        assert exc_info.value.check == "emissions"
        assert "align" in exc_info.value.span_path

    def test_streamed_backward_corruption_attributed_to_stage(
        self, workload, monkeypatch
    ):
        """The pipeline never keeps the backward pass, except under the
        sanitizer, which runs it on an ``N+1``-row store and checks it whole:
        a NaN planted in the emissions after the forward pass has read them
        is caught there, before its tile's z leaves the call, and attributed
        to ``map_reads/align``."""
        real_forward = LaneTile.forward

        def poisoned_forward(tile, pl, params):
            loglik = real_forward(tile, pl, params)
            pl[-1, 0] = np.nan  # row N, code A: read by backward row N-1
            return loglik

        monkeypatch.setattr(LaneTile, "forward", poisoned_forward)
        pipe = GnumapSnp(workload.reference, PipelineConfig())
        with sanitize.sanitized():
            with pytest.raises(SanitizerError) as exc_info:
                pipe.map_reads(workload.reads)
        assert exc_info.value.check == "backward"
        assert exc_info.value.span_path[-2:] == ("map_reads", "align")

    def test_band_check_sees_every_streamed_backward_row(self, monkeypatch):
        from repro.phmm.alignment import align_batch_banded

        seen = []
        real_check_band = sanitize.check_band

        def spy(sM, sGX, sGY, band, kind="forward"):
            seen.append((kind, sM.shape))
            real_check_band(sM, sGX, sGY, band, kind=kind)

        monkeypatch.setattr(sanitize, "check_band", spy)
        rng = np.random.default_rng(6)
        pwms = rng.dirichlet(np.ones(4), size=(3, 6))
        windows = rng.integers(0, 4, (3, 10)).astype(np.uint8)
        with sanitize.sanitized():
            align_batch_banded(
                pwms, windows, self.PARAMS, np.full(3, 2), band_w=2, adaptive=False
            )
        # Both passes whole: all seven rows of the backward one.
        assert seen == [("forward", (3, 7, 11)), ("backward", (3, 7, 11))]

    def test_leaked_mass_in_a_streamed_row_is_caught(self):
        """Mass one backward row holds outside its band is caught; the same
        mass inside it is not."""
        from repro.phmm.banded import BandSpec

        band = BandSpec(n=3, m=5, center=2, width=1)  # row 2 spans columns 3..5
        rows = np.zeros((1, 4, 6))
        rows[0, 2, 3:6] = 0.5
        sanitize.check_band(rows, rows, rows, band, kind="backward")
        rows[0, 0, 3:6] = 0.5  # row 0 spans columns 1..3
        with pytest.raises(SanitizerError, match="band_backward"):
            sanitize.check_band(rows, rows, rows, band, kind="backward")


class TestAccumulatorHooks:
    def test_corrupted_add_raises_when_enabled(self):
        acc = DenseAccumulator(8)
        positions = np.array([1, 2], dtype=np.int64)
        z = np.full((2, 5), 0.1)
        z[1, 3] = np.nan
        # Default: NaN slips past the (z < 0) guard.
        acc.add(positions, z.copy())
        assert np.isnan(acc.snapshot()).any()
        # Sanitized: caught at the add boundary.
        acc2 = DenseAccumulator(8)
        with sanitize.sanitized():
            with pytest.raises(SanitizerError, match="accumulator.add"):
                acc2.add(positions, z.copy())

    def test_clean_add_unaffected(self):
        acc = DenseAccumulator(8)
        positions = np.array([1, 2], dtype=np.int64)
        z = np.full((2, 5), 0.1)
        with sanitize.sanitized():
            acc.add(positions, z)
        assert acc.snapshot().sum() == pytest.approx(1.0)


class TestEndToEnd:
    def test_clean_run_identical_with_sanitizer(self, workload):
        """The sanitizer is observe-only: enabling it changes nothing."""
        config = PipelineConfig()
        plain = GnumapSnp(workload.reference, config).run(workload.reads)
        with sanitize.sanitized():
            checked = GnumapSnp(workload.reference, config).run(workload.reads)
        assert {(s.pos, s.alt_name) for s in checked.snps} == {
            (s.pos, s.alt_name) for s in plain.snps
        }
        assert np.allclose(
            checked.accumulator.snapshot(), plain.accumulator.snapshot()
        )

    def test_snapshot_check_catches_poisoned_accumulator(self, workload):
        config = PipelineConfig()
        pipe = GnumapSnp(workload.reference, config)
        acc = pipe.map_reads(workload.reads)
        acc.add(np.array([0], dtype=np.int64), np.full((1, 5), 0.1))
        # Poison the stored evidence directly (as a buggy merge would).
        acc._z[0, 0] = np.inf
        with sanitize.sanitized():
            with pytest.raises(SanitizerError, match="accumulator.snapshot"):
                pipe.call_snps(acc)
