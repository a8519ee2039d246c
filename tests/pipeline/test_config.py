"""Tests for pipeline configuration validation."""

import dataclasses

import pytest

from repro.errors import ConfigError
from repro.pipeline.config import ParallelConfig, PipelineConfig


class TestPipelineConfig:
    def test_defaults(self):
        cfg = PipelineConfig()
        assert cfg.k == 10  # the paper's default mer-size
        assert cfg.accumulator == "NORM"
        assert cfg.alignment_mode == "semiglobal"

    def test_accumulator_names(self):
        for name in ("NORM", "CHARDISC", "CENTDISC", "chardisc"):
            PipelineConfig(accumulator=name)
        with pytest.raises(ConfigError):
            PipelineConfig(accumulator="DENSE")

    def test_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(k=0)
        with pytest.raises(ConfigError):
            PipelineConfig(pad=-1)
        with pytest.raises(ConfigError):
            PipelineConfig(batch_size=0)
        with pytest.raises(ConfigError):
            PipelineConfig(edge_policy="wat")
        with pytest.raises(ConfigError):
            PipelineConfig(min_ratio=1.0)

    def test_kernel_keywords_are_a_type_error(self):
        # One kernel family: the selectors are read-only constants (kept for
        # ledger/replay.py), not fields.
        with pytest.raises(TypeError):
            PipelineConfig(phmm_kernel="rowsweep")
        with pytest.raises(TypeError):
            PipelineConfig(phmm_dtype="float64")
        cfg = PipelineConfig()
        assert (cfg.phmm_kernel, cfg.phmm_dtype) == ("rowsweep", "float64")
        names = {f.name for f in dataclasses.fields(cfg)}
        assert len(names) == 16
        assert not names & {
            "phmm_kernel", "phmm_dtype", "alignment_mode", "max_index_positions_per_kmer",
        }

    def test_deleted_knobs_are_gone(self):
        """The global alignment mode, the fixed band, the seeder's step and
        the index's repeat cap were deleted as options; the ledger's pins
        read the one value left."""
        from repro.index.seeding import SeederConfig

        with pytest.raises(TypeError):
            PipelineConfig(alignment_mode="global")
        with pytest.raises(TypeError):
            SeederConfig(step=2)
        with pytest.raises(TypeError):
            PipelineConfig(max_index_positions_per_kmer=None)
        with pytest.raises(ConfigError):
            PipelineConfig(band_mode="fixed")
        assert PipelineConfig().alignment_mode == "semiglobal"
        assert PipelineConfig().max_index_positions_per_kmer == 64
        assert SeederConfig().step == 1
        assert "step" not in {f.name for f in dataclasses.fields(SeederConfig)}

    def test_band_defaults_off(self):
        cfg = PipelineConfig()
        assert cfg.band_mode == "off"
        assert not cfg.banding

    def test_band_validation(self):
        with pytest.raises(ConfigError):
            PipelineConfig(band_mode="diagonal")
        with pytest.raises(ConfigError):
            PipelineConfig(band_w=0)
        with pytest.raises(ConfigError):
            PipelineConfig(band_tolerance=1.0)
        with pytest.raises(ConfigError):
            PipelineConfig(band_tolerance=-0.1)

    def test_banding_requires_marginal_posteriors(self):
        assert PipelineConfig(band_mode="adaptive").banding
        assert not PipelineConfig(
            band_mode="adaptive", posterior_mode="viterbi"
        ).banding

    def test_subconfigs_carried(self):
        from repro.calling.caller import CallerConfig
        from repro.index.seeding import SeederConfig

        cfg = PipelineConfig(
            seeder=SeederConfig(diagonal_slack=5),
            caller=CallerConfig(alpha=0.01),
        )
        assert cfg.seeder.diagonal_slack == 5
        assert cfg.caller.alpha == 0.01


class TestParallelConfig:
    def test_defaults(self):
        par = PipelineConfig().parallel
        assert par.start_method == "spawn"
        assert par.chunk_timeout == 120.0
        assert par.max_retries == 2
        assert par.fault_spec == ""

    def test_validation(self):
        with pytest.raises(ConfigError):
            ParallelConfig(start_method="thread")
        with pytest.raises(ConfigError):
            ParallelConfig(chunk_timeout=0.0)
        with pytest.raises(ConfigError):
            ParallelConfig(max_retries=-1)
        # A malformed fault spec fails at config time, not mid-run.
        with pytest.raises(ConfigError):
            ParallelConfig(fault_spec="segfault:chunk=0")

    def test_nested_carried(self):
        cfg = PipelineConfig(
            parallel=ParallelConfig(start_method="fork")
        )
        assert cfg.parallel.start_method == "fork"

    def test_flat_mp_kwarg_is_a_type_error(self):
        # The 1.x flat spellings are gone, not silently accepted.
        with pytest.raises(TypeError):
            PipelineConfig(mp_chunk_timeout=1)
        # The retry backoff is a constant of the pool, not a knob.
        with pytest.raises(TypeError):
            ParallelConfig(backoff_base=0.01)


class TestSeederKnobs:
    def test_valid_seed_len_accepted(self):
        from repro.index.seeding import SeederConfig

        cfg = PipelineConfig(k=10, seeder=SeederConfig(seed_len=20))
        assert cfg.seeder.seed_len == 20
        # A width override, not a second table: nothing ties it to k.
        assert PipelineConfig(k=12, seeder=SeederConfig(seed_len=11)).k == 12

    def test_filter_knobs_validated_at_source(self):
        from repro.errors import IndexError_
        from repro.index.seeding import SeederConfig

        with pytest.raises(IndexError_):
            SeederConfig(filter_threshold=1.5)
