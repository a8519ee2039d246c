"""Validate the ``repro.metrics/v2`` document of a pooled ``repro call``.

    PYTHONPATH=src python tools/ci/validate_metrics_doc.py metrics.json

Run from the directory the call ran in: the read count is checked against
the FASTQ named by the manifest's recorded command line.  CI's
``metrics-smoke`` job calls this after a ``--workers 2`` run.
"""

import json
import sys

from repro.observability import read_metrics_json


def main(path: str) -> None:
    with open(path) as fh:
        doc = json.load(fh)
    assert doc["schema"] == "repro.metrics/v2", doc["schema"]
    assert set(doc) == {"schema", "counters", "gauges", "histograms",
                        "spans", "totals", "manifest"}
    assert doc["manifest"]["schema"] == "repro.manifest/v1"
    assert doc["manifest"]["workers"] == 2
    assert doc["histograms"]["mp.chunk_map_seconds"]["count"] > 0

    snap = read_metrics_json(path)
    with open(doc["manifest"]["argv"][2]) as fh:  # call <ref> <reads> ...
        n_reads = sum(1 for _ in fh) // 4
    assert snap.counters["pipeline.reads"] == n_reads
    assert snap.counters["phmm.forward_cells"] > 0
    assert snap.counters["index.builds"] == 1
    # The CLI's parallel path is the persistent shared-memory pool: workers
    # attach the published genome+index instead of rebuilding (hence
    # index.builds == 1 above).
    assert snap.gauges["mp.shm_bytes"] > 0
    # Worker trees hang under the span that dispatched them, so the roots
    # (what totals.span_seconds sums) count the mapping once.
    assert "map_reads" not in snap.spans, sorted(snap.spans)
    assert snap.span_seconds("map_parallel/map_reads") > 0
    # Workers time their own layers, and the layers ship home with the tree.
    for layer in ("map_reads/align/forward", "map_reads/seed/lookup"):
        seconds = snap.span_seconds(f"map_parallel/{layer}")
        assert seconds > 0, f"map_parallel/{layer} is {seconds}"
    # Workers ship their tiles home.  On CI's `tiny` input (1,936 reads, six
    # chunks) a worker's tile is 193-205 lanes; a plan that cuts chunks below
    # a lane tile's reads narrows it (eight 242-read chunks: 141-159).
    assert snap.histogram("phmm.tile_lanes") is not None
    lanes = snap.histogram_quantile("phmm.tile_lanes", 0.5)
    assert lanes >= 160, f"median tile is {lanes:.0f} lanes, want >= 160"
    print(f"metrics smoke OK: {n_reads} reads, "
          f"{snap.counters['phmm.forward_cells']:,} DP cells, "
          f"median tile {lanes:.0f} lanes, "
          f"{snap.total_span_seconds():.2f}s spanned")


if __name__ == "__main__":
    main(sys.argv[1])
