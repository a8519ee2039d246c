"""Golden-file regression test for the ``repro.metrics/v2`` JSON schema.

Downstream tooling parses ``--metrics-json`` output; this test pins the
exact document layout (key order, nesting, totals) for a synthetic,
fully deterministic snapshot.  If you change the schema intentionally,
bump :data:`repro.observability.export.SCHEMA` and regenerate the golden
file (instructions in the assertion message).
"""

import json
import pathlib

import pytest

from repro.errors import ObservabilityError
from repro.observability import (
    SCHEMA,
    MetricsRegistry,
    read_metrics_json,
    to_json,
    to_json_dict,
    write_metrics_json,
)

GOLDEN = pathlib.Path(__file__).parent.parent / "data" / "metrics_golden.json"


def build_reference_snapshot():
    """A deterministic snapshot shaped like a real pipeline run."""
    reg = MetricsRegistry()
    reg.inc("pipeline.reads", 1000)
    reg.inc("pipeline.reads_mapped", 990)
    reg.inc("pipeline.pairs", 1503)
    reg.inc("phmm.forward_cells", 6012000)
    reg.inc("caller.snps", 12)
    reg.gauge_max("index.bytes", 524288)
    reg.gauge_max("pipeline.peak_accumulator_bytes", 200000)
    reg.record_span(("index_build",), 0.125)
    reg.record_span(("map_reads",), 2.5)
    reg.record_span(("map_reads", "seed"), 0.5, count=1000)
    reg.record_span(("map_reads", "align"), 1.75, count=4)
    reg.record_span(("map_reads", "accumulate"), 0.25, count=4)
    reg.record_span(("call",), 0.0625)
    reg.observe("mp.chunk_map_seconds", 0.25)
    reg.observe("mp.chunk_map_seconds", 0.5, count=2)
    reg.observe("mp.chunk_map_seconds", 1.0)
    return reg.snapshot()


class TestMetricsJsonSchema:
    def test_matches_golden_file(self):
        got = to_json(build_reference_snapshot())
        want = GOLDEN.read_text()
        assert got == want, (
            "metrics JSON schema drifted from tests/data/metrics_golden.json; "
            "if intentional, bump SCHEMA and regenerate the golden file by "
            "writing to_json(build_reference_snapshot()) to it"
        )

    def test_schema_tag_and_sections(self):
        doc = to_json_dict(build_reference_snapshot())
        assert doc["schema"] == SCHEMA == "repro.metrics/v2"
        assert set(doc) == {
            "schema", "counters", "gauges", "histograms", "spans", "totals",
        }
        assert doc["totals"]["span_seconds"] == 0.125 + 2.5 + 0.0625
        seed = doc["spans"]["map_reads"]["children"]["seed"]
        assert set(seed) == {"seconds", "count", "children"}

    def test_histogram_section_has_quantiles_and_string_buckets(self):
        doc = json.loads(to_json(build_reference_snapshot()))
        hist = doc["histograms"]["mp.chunk_map_seconds"]
        assert hist["count"] == 4
        assert hist["min"] == 0.25
        assert hist["max"] == 1.0
        # p50 of [0.25, 0.5, 0.5, 1.0] covers the 0.5 bucket, whose upper
        # bound is exactly 0.5 on the fixed GROWTH=2**0.25 grid.
        assert hist["p50"] == pytest.approx(0.5)
        assert hist["p99"] == pytest.approx(1.0)
        assert all(isinstance(k, str) for k in hist["buckets"])

    def test_manifest_embeds_when_supplied(self):
        doc = to_json_dict(build_reference_snapshot(), manifest={"seed": 7})
        assert doc["manifest"] == {"seed": 7}

    def test_counters_stay_integers_in_json(self):
        doc = json.loads(to_json(build_reference_snapshot()))
        assert doc["counters"]["pipeline.reads"] == 1000
        assert isinstance(doc["counters"]["pipeline.reads"], int)

    def test_file_roundtrip(self, tmp_path):
        snap = build_reference_snapshot()
        path = tmp_path / "metrics.json"
        write_metrics_json(str(path), snap)
        assert read_metrics_json(str(path)) == snap

    def test_unknown_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": "repro.metrics/v99"}))
        with pytest.raises(ObservabilityError, match="unknown metrics schema"):
            read_metrics_json(str(path))
