"""Smoke tests for the experiment harnesses at tiny scale.

The real shape assertions live in benchmarks/; here we verify the harnesses
run end to end, produce well-formed rows, and format cleanly.
"""

import pytest

from repro.experiments import ablations, fig4, fig5, table1, table2, table3
from repro.experiments.workload import build_workload


@pytest.fixture(scope="module")
def workload():
    return build_workload(scale="tiny", seed=404)


class TestTable1:
    def test_rows_and_format(self, workload):
        rows = table1.run(workload=workload, n_ranks=4)
        assert len(rows) == 2
        programs = {r.program.split()[0] for r in rows}
        assert any("MAQ" in p for p in programs)
        text = table1.format(rows)
        assert "TP" in text and "Precision" in text
        for row in rows:
            assert row.time_minutes > 0
            total = row.counts.tp + row.counts.fn
            assert total == len(workload.catalog)


class TestTable2:
    def test_rows_and_format(self, workload):
        rows = table2.run(workload=workload)
        assert [r.optimization for r in rows] == ["NORM", "CHARDISC", "CENTDISC"]
        text = table2.format(rows)
        assert "chrX" in text
        assert rows[0].chrx_gb > rows[1].chrx_gb > rows[2].chrx_gb


class TestTable3:
    def test_rows_and_format(self, workload):
        rows = table3.run(workload=workload)
        # the paper's three modes plus the CENTDISC_WEIGHTED extension
        assert [r.optimization for r in rows] == [
            "NORM", "CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED",
        ]
        assert rows[0].mem_bytes > rows[2].mem_bytes
        assert rows[3].mem_bytes == rows[2].mem_bytes
        text = table3.format(rows)
        assert "WT" in text


class TestFig4:
    def test_points_and_format(self, workload):
        points = fig4.run(workload=workload, ranks=(1, 2))
        modes = {p.mode for p in points}
        assert modes == {"read-spread", "memory-spread"}
        text = fig4.format(points)
        assert "reads/s" in text
        for p in points:
            assert p.reads_per_second > 0

    def test_bad_ranks_rejected(self, workload):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError):
            fig4.run(workload=workload, ranks=())


class TestFig5:
    def test_points_and_format(self, workload):
        points = fig5.run(workload=workload, ranks=(1, 2))
        opts = {p.optimization for p in points}
        assert opts == {"NORM", "CHARDISC", "CENTDISC"}
        text = fig5.format(points)
        assert "optimization" in text


class TestAblations:
    def test_rows_and_format(self, workload):
        rows = ablations.run(workload=workload)
        names = [r.variant for r in rows]
        assert "GNUMAP-SNP (full)" in names
        assert any("MAQ" in n for n in names)
        text = ablations.format(rows)
        assert "precision" in text
