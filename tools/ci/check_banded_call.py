"""Check the metrics of a ``repro call --band-mode adaptive`` run.

    PYTHONPATH=src python tools/ci/check_banded_call.py metrics_banded.json

The banded kernels must actually have run.  CI's ``metrics-smoke`` job calls
this after comparing the banded run's calls with the full run's.
"""

import sys

from repro.observability import read_metrics_json


def main(path: str) -> None:
    snap = read_metrics_json(path)
    banded = snap.counters["phmm.cells_banded"]
    escapes = snap.counters.get("phmm.band_escapes", 0)
    assert banded > 0, "banded kernels never ran"
    print(f"banded smoke OK: output identical, {banded:,} banded "
          f"cells, {escapes} escapes")


if __name__ == "__main__":
    main(sys.argv[1])
