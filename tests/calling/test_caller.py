"""Tests for the SNP caller on accumulated evidence."""

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.calling.caller as caller_module
from repro.calling.caller import CallerConfig, SNPCaller
from repro.calling.records import BaseCall, SNPCall
from repro.errors import CallingError
from repro.genome.alphabet import GAP, N, encode
from tests.calling.negative_multinomial import sample_alternative, sample_null


def z_matrix(rows):
    return np.asarray(rows, dtype=np.float64)


class TestCallerConfig:
    def test_validation(self):
        with pytest.raises(CallingError):
            CallerConfig(ploidy=3)
        with pytest.raises(CallingError):
            CallerConfig(alpha=0.0)
        with pytest.raises(CallingError):
            CallerConfig(method="bogus")
        with pytest.raises(CallingError):
            CallerConfig(fdr=1.0)


class TestBaseCalls:
    def test_strong_signal_significant(self):
        caller = SNPCaller(CallerConfig(alpha=0.001))
        z = z_matrix([[12.0, 0.1, 0.1, 0.1, 0]])
        calls = caller.base_calls(z)
        assert len(calls) == 1
        assert calls[0].significant
        assert calls[0].top_channel == 0

    def test_below_min_depth_skipped(self):
        caller = SNPCaller()
        z = z_matrix([[caller_module.MIN_DEPTH - 0.5, 0, 0, 0, 0]])
        assert caller.base_calls(z) == []

    def test_uniform_background_not_significant(self):
        caller = SNPCaller()
        z = z_matrix([[2.0, 2.0, 2.0, 2.0, 2.0]])
        calls = caller.base_calls(z)
        assert len(calls) == 1
        assert not calls[0].significant

    def test_positions_offset(self):
        caller = SNPCaller()
        z = z_matrix([[9.0, 0, 0, 0, 0]])
        calls = caller.base_calls(z, positions=np.array([1234]))
        assert calls[0].pos == 1234

    def test_diploid_het_genotype(self):
        caller = SNPCaller(CallerConfig(ploidy=2))
        z = z_matrix([[10.0, 10.0, 0.2, 0.2, 0]])
        calls = caller.base_calls(z)
        assert calls[0].heterozygous
        assert calls[0].genotype == (0, 1)

    def test_shape_validation(self):
        caller = SNPCaller()
        with pytest.raises(CallingError):
            caller.base_calls(np.zeros((2, 4)))
        with pytest.raises(CallingError):
            caller.base_calls(np.zeros((2, 5)), positions=np.array([1]))


class TestSnps:
    def test_alt_call_reported(self):
        caller = SNPCaller()
        ref = encode("ACGT")
        z = np.zeros((4, 5))
        z[1] = [15.0, 0.1, 0.1, 0.1, 0]  # strong A evidence at ref C
        snps = caller.snps(z, ref)
        assert len(snps) == 1
        assert snps[0].pos == 1
        assert snps[0].ref_name == "C"
        assert snps[0].alt_name == "A"

    def test_reference_match_not_reported(self):
        caller = SNPCaller()
        ref = encode("AAAA")
        z = np.zeros((4, 5))
        z[2] = [15.0, 0.1, 0.1, 0.1, 0]  # A evidence at ref A
        assert caller.snps(z, ref) == []

    def test_n_reference_skipped(self):
        caller = SNPCaller()
        ref = encode("ANAA")
        z = np.zeros((4, 5))
        z[1] = [15.0, 0, 0, 0, 0]
        assert caller.snps(z, ref) == []

    def test_gap_calls_suppressed_by_default(self):
        """A significant gap winner is no substitution SNP: never reported."""
        caller = SNPCaller()
        ref = encode("AAAA")
        z = np.zeros((4, 5))
        z[0] = [0.1, 0.1, 0.1, 0.1, 15.0]  # deletion evidence
        (call,) = caller.base_calls(z[:1])
        assert call.significant and call.top_channel == GAP
        assert caller.snps(z, ref) == []

    def test_het_with_ref_allele_is_snp(self):
        caller = SNPCaller(CallerConfig(ploidy=2))
        ref = encode("AAAA")
        z = np.zeros((4, 5))
        z[0] = [10.0, 10.0, 0.2, 0.2, 0]  # A/C het at ref A
        snps = caller.snps(z, ref)
        assert len(snps) == 1
        assert snps[0].alt_name == "A/C"

    def test_out_of_range_position_rejected(self):
        caller = SNPCaller()
        z = np.zeros((1, 5))
        z[0] = [15.0, 0, 0, 0, 0]
        with pytest.raises(CallingError):
            caller.snps(z, encode("AC"), positions=np.array([10]))

    def test_fdr_method_runs(self):
        caller = SNPCaller(CallerConfig(method="fdr", fdr=0.05))
        ref = encode("C" * 10)
        z = np.tile(np.array([0.5, 3.0, 0.5, 0.5, 0.2]), (10, 1))
        z[4] = [20.0, 0.1, 0.1, 0.1, 0]
        snps = caller.snps(z, ref)
        assert any(s.pos == 4 for s in snps)


def snps_by_loop(caller, z, reference_codes, positions=None):
    """The per-record filter ``snps`` was before it became one predicate over
    the LRT arrays: every eligible position's ``BaseCall``, one at a time."""
    reference_codes = np.asarray(reference_codes)
    out = []
    for call in caller.base_calls(z, positions):
        if not call.significant:
            continue
        if call.pos >= reference_codes.size:
            raise CallingError(f"call at {call.pos} beyond reference")
        ref = int(reference_codes[call.pos])
        if ref == N:
            continue
        genotype = call.genotype
        if GAP in genotype:
            continue
        if genotype != (ref,):
            out.append(SNPCall(pos=call.pos, ref_base=ref, call=call))
    return out


def mixed_evidence(rng, length):
    """An accumulator with every kind of row the predicate must tell apart:
    reference-dominant background, alternate-dominant SNPs, 50/50 hets (with
    and without the reference allele, and with the gap), deletions,
    undecided rows and rows below ``MIN_DEPTH``; the reference carries N."""
    ref = rng.integers(0, 4, length).astype(np.uint8)
    ref[rng.random(length) < 0.1] = N
    z = rng.uniform(0.0, 0.3, (length, 5))
    kind = rng.integers(0, 8, length)
    rows = np.arange(length)
    depth = rng.uniform(6.0, 30.0, length)
    safe_ref = np.minimum(ref, 3)
    alt = (safe_ref + rng.integers(1, 4, length)) % 4
    z[rows, safe_ref] += np.where(kind <= 1, depth, 0.0)           # background
    z[rows, alt] += np.where(kind == 2, depth, 0.0)                # hom SNP
    z[rows, safe_ref] += np.where(kind == 3, depth / 2, 0.0)       # ref/alt het
    z[rows, alt] += np.where(kind == 3, depth / 2, 0.0)
    z[rows, GAP] += np.where(kind == 4, depth, 0.0)                # deletion
    z[rows, alt] += np.where(kind == 5, depth / 2, 0.0)            # alt/gap het
    z[rows, GAP] += np.where(kind == 5, depth / 2, 0.0)
    z[kind == 6] = rng.uniform(1.0, 2.0, (int((kind == 6).sum()), 5))  # undecided
    z[kind == 7] *= 0.5                                            # below min_depth
    return z, ref


class TestSnpsAgainstPerRecordOracle:
    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        ploidy=st.sampled_from([1, 2]),
        method=st.sampled_from(["bonferroni", "fdr"]),
        segment=st.booleans(),
    )
    def test_snps_equal_filtered_base_calls(self, seed, ploidy, method, segment):
        rng = np.random.default_rng(seed)
        length = int(rng.integers(1, 400))
        z, ref = mixed_evidence(rng, length)
        caller = SNPCaller(CallerConfig(ploidy=ploidy, method=method))
        positions = None
        if segment:
            lo = int(rng.integers(0, length))
            z, positions = z[lo:], np.arange(lo, length)
        got = caller.snps(z, ref, positions)
        assert got == snps_by_loop(caller, z, ref, positions)
        assert all(type(s.ref_base) is int and type(s.pos) is int for s in got)

    def test_depth_is_the_row_sum_bit_for_bit(self):
        """Depth is summed channel by channel; it must be ``z.sum(axis=1)``."""
        rng = np.random.default_rng(9)
        z = rng.uniform(0.0, 40.0, (5000, 5))
        z[::3] = z[::3].astype(np.float32)  # what a float32 accumulator hands over
        calls = SNPCaller().base_calls(z)
        depth = z.sum(axis=1)
        assert [c.depth for c in calls] == depth[depth >= caller_module.MIN_DEPTH].tolist()

    @pytest.mark.parametrize("ploidy", [1, 2])
    def test_nothing_eligible(self, ploidy):
        caller = SNPCaller(CallerConfig(ploidy=ploidy, method="fdr"))
        assert caller.snps(np.zeros((7, 5)), encode("ACGTACG")) == []
        assert caller.base_calls(np.zeros((0, 5))) == []

    def test_only_reportable_positions_must_lie_on_the_reference(self):
        """An out-of-range position raises only where the old loop reached the
        reference lookup: at a significant position."""
        caller = SNPCaller()
        z = np.array([[15.0, 0, 0, 0, 0], [2.0, 2.0, 2.0, 2.0, 2.0], [15.0, 0, 0, 0, 0]])
        ref = encode("CC")
        positions = np.array([0, 50, 60])
        with pytest.raises(CallingError, match="call at 60 beyond reference of 2"):
            caller.snps(z, ref, positions)
        assert [s.pos for s in caller.snps(z[:2], ref, positions[:2])] == [0]

    def test_records_are_built_for_calls_not_for_the_genome(self, monkeypatch):
        """100 kbp of well-covered reference-matching evidence with 5 planted
        SNPs: ``snps`` constructs a ``BaseCall`` per SNP, ``base_calls`` one
        per position."""
        rng = np.random.default_rng(5)
        length = 100_000
        ref = rng.integers(0, 4, length).astype(np.uint8)
        z = rng.uniform(0.0, 0.2, (length, 5))
        z[np.arange(length), ref] += 12.0
        planted = np.array([17, 20_000, 43_210, 77_777, 99_999])
        z[planted] = 0.1
        z[planted, (ref[planted] + 1) % 4] += 12.0

        built = []

        def counting(*args, **kwargs):
            built.append(1)
            return BaseCall(*args, **kwargs)

        monkeypatch.setattr(caller_module, "BaseCall", counting)
        snps = SNPCaller().snps(z, ref)
        assert [s.pos for s in snps] == planted.tolist()
        assert len(built) <= 2 * planted.size
        built.clear()
        assert len(SNPCaller().base_calls(z)) == length == len(built)


class TestStatisticalBehaviour:
    def test_false_positive_rate_controlled(self):
        # Background-only evidence at many positions: strict Bonferroni
        # alpha keeps false calls rare.
        caller = SNPCaller(CallerConfig(alpha=0.001))
        z = sample_null(3000, depth=12.0, seed=0)
        calls = caller.base_calls(z)
        n_sig = sum(c.significant for c in calls)
        assert n_sig < 30  # << 3000

    def test_power_on_real_signal(self):
        caller = SNPCaller(CallerConfig(alpha=0.001))
        z = sample_alternative(300, depth=12.0, dominant_channel=2, purity=0.92, seed=1)
        calls = caller.base_calls(z)
        n_sig = sum(c.significant and c.top_channel == 2 for c in calls)
        assert n_sig > 250
