"""Check the metrics of a ``repro call --k 20 --qgram-filter`` run.

    PYTHONPATH=src python tools/ci/check_filtered_seeding.py metrics_filtered.json

The index is one table at the requested width (no second, long-seed table)
and seeding ran.  CI's ``metrics-smoke`` job calls this after comparing the
filtered run's calls with the default run's.
"""

import sys

from repro.observability import read_metrics_json


def main(path: str) -> None:
    snap = read_metrics_json(path)
    assert snap.gauges.get("index.kmers", 0) > 0, "no index table"
    assert "index.long_kmers" not in snap.gauges, "second table is back"
    reads = snap.counters["seed.reads"]
    cands = snap.counters["seed.candidates"]
    print(f"seeding smoke OK: output identical, {cands/reads:.2f} "
          f"candidates/read over the 20-mer index")


if __name__ == "__main__":
    main(sys.argv[1])
