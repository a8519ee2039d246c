"""Tests for the deterministic fault-injection plan and spec grammar."""

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.parallel.faults import (
    EMPTY_PLAN,
    FaultClause,
    corrupt_buffers,
    parse_fault_spec,
)


class TestSpecGrammar:
    def test_empty_spec_is_noop_plan(self):
        plan = parse_fault_spec("")
        assert plan is EMPTY_PLAN
        assert not plan
        assert parse_fault_spec("  ;  ") is EMPTY_PLAN

    def test_bare_mode(self):
        plan = parse_fault_spec("crash")
        assert plan
        assert plan.clauses == (FaultClause(mode="crash"),)

    def test_full_clause(self):
        plan = parse_fault_spec("hang:chunk=3,times=2,secs=7.5")
        (clause,) = plan.clauses
        assert clause.mode == "hang"
        assert clause.chunk == 3
        assert clause.times == 2
        assert clause.secs == 7.5

    def test_multiple_clauses_keep_order(self):
        plan = parse_fault_spec("crash:chunk=0 ; corrupt:chunk=1")
        assert [c.mode for c in plan.clauses] == ["crash", "corrupt"]
        assert [c.chunk for c in plan.clauses] == [0, 1]

    def test_whitespace_and_case_tolerated(self):
        plan = parse_fault_spec(" CRASH : Chunk = 2 ")
        assert plan.clauses[0].mode == "crash"
        assert plan.clauses[0].chunk == 2

    @pytest.mark.parametrize(
        "spec",
        [
            "segfault",                  # unknown mode
            "crash:chunks=1",            # unknown key
            "crash:chunk",               # missing =value
            "crash:chunk=x",             # non-integer value
            "crash:times=0",             # times < 1
            "crash:chunk=-1",            # negative chunk
            "crash:p=0",                 # the deleted probabilistic keys
            "crash:p=1.5",
            "crash:seed=7",
            "hang:secs=0",              # non-positive hang
        ],
    )
    def test_bad_specs_raise_config_error(self, spec):
        with pytest.raises(ConfigError):
            parse_fault_spec(spec)


class TestFiring:
    def test_pinned_chunk_fires_only_there(self):
        clause = FaultClause(mode="crash", chunk=2)
        assert clause.fires(2, 0)
        assert not clause.fires(1, 0)
        # Unpinned, a clause fires on every chunk.
        assert all(FaultClause(mode="crash").fires(cid, 0) for cid in range(5))

    def test_times_bounds_attempts(self):
        clause = FaultClause(mode="crash", chunk=0, times=1)
        assert clause.fires(0, 0)
        assert not clause.fires(0, 1)  # the retry must succeed
        twice = FaultClause(mode="crash", chunk=0, times=2)
        assert twice.fires(0, 1)
        assert not twice.fires(0, 2)

    def test_clause_for_filters_by_mode(self):
        plan = parse_fault_spec("crash:chunk=0;hang:chunk=1")
        assert plan.clause_for(0, 0, mode="crash").mode == "crash"
        assert plan.clause_for(0, 0, mode="hang") is None
        assert plan.clause_for(1, 0, mode="hang").mode == "hang"
        assert plan.clause_for(5, 0) is None

    def test_corrupts(self):
        plan = parse_fault_spec("corrupt:chunk=1")
        assert plan.corrupts(1, 0)
        assert not plan.corrupts(1, 1)
        assert not plan.corrupts(0, 0)

    def test_empty_plan_hooks_are_noops(self):
        EMPTY_PLAN.inject_pre_compute(0, 0)  # must not crash/hang/raise
        assert not EMPTY_PLAN.corrupts(0, 0)


class TestCorruptBuffers:
    def test_poisons_first_float_buffer_copy(self):
        z = np.ones(8, dtype=np.float32)
        out = corrupt_buffers({"z": z})
        assert np.isnan(out["z"].flat[0])
        # The input is never mutated (the worker's accumulator stays clean).
        assert not np.isnan(z).any()

    def test_integer_buffers_pass_through(self):
        counts = np.ones(8, dtype=np.int64)
        out = corrupt_buffers({"counts": counts})
        assert out["counts"] is counts

    def test_only_first_float_buffer_touched(self):
        a = np.ones(4, dtype=np.float64)
        b = np.ones(4, dtype=np.float64)
        out = corrupt_buffers({"a": a, "b": b})
        assert np.isnan(out["a"]).sum() == 1
        assert not np.isnan(out["b"]).any()
