"""Tests for the markdown run report."""

from dataclasses import replace

import numpy as np
import pytest

from repro.evaluation.report import MAX_SNP_ROWS, _coverage_histogram, run_report
from repro.experiments.workload import build_workload
from repro.observability.export import format_span_tree
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


@pytest.fixture(scope="module")
def run():
    wl = build_workload(scale="tiny", seed=808)
    result = GnumapSnp(wl.reference, PipelineConfig()).run(wl.reads)
    return wl, result


class TestCoverageHistogram:
    def test_bars_scale(self):
        depth = np.concatenate([np.zeros(50), np.full(100, 10.0)])
        text = _coverage_histogram(depth, n_bins=5)
        assert text.count("\n") == 4
        assert "#" in text

    def test_empty(self):
        assert "empty" in _coverage_histogram(np.array([]))


class TestRunReport:
    def test_contains_all_sections(self, run):
        wl, result = run
        text = run_report(result, wl.reference, truth=wl.catalog)
        for section in ("# GNUMAP-SNP run report", "## Summary",
                        "## Stage timing", "## Coverage", "## SNP calls",
                        "## Accuracy vs truth"):
            assert section in text

    def test_numbers_present(self, run):
        wl, result = run
        text = run_report(result, wl.reference, truth=wl.catalog)
        assert f"{wl.n_reads:,} total" in text
        assert "precision" in text
        for snp in result.snps[:3]:
            assert f"| {snp.pos} |" in text

    def test_without_truth(self, run):
        wl, result = run
        text = run_report(result, wl.reference)
        assert "Accuracy" not in text

    def test_row_cap(self, run):
        wl, result = run
        assert result.snps
        many = replace(result, snps=result.snps * (MAX_SNP_ROWS + 1))
        text = run_report(many, wl.reference)
        extra = len(many.snps) - MAX_SNP_ROWS
        assert f"({extra} more)" in text
        assert text.count(f"| {result.snps[0].pos} |") == -(-MAX_SNP_ROWS // len(result.snps))

    def test_stage_timing_is_the_span_tree(self, run):
        """Layer spans nest under their stage as `-v` prints them, and the
        total is the top-level spans' — not a flat list of every node."""
        wl, result = run
        text = run_report(result, wl.reference)
        section = text.split("## Stage timing")[1].split("## Coverage")[0]
        tree = format_span_tree(result.metrics.spans)
        assert "\n".join(tree) in section
        assert any(line.split()[0] == "lookup" and line.startswith("      ") for line in tree)
        assert f"total: {result.metrics.total_span_seconds():.2f} s" in section
        assert "| lookup |" not in section

    def test_renders_empty_run(self, run):
        wl, _ = run
        pipe = GnumapSnp(wl.reference, PipelineConfig())
        empty = pipe.run([])
        text = run_report(empty, wl.reference)
        assert "No SNPs called." in text
