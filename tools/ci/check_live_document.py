"""Read the live metrics document while a two-worker pool run is in flight.

    PYTHONPATH=src python tools/ci/check_live_document.py ref.fa reads.fq

Drives an ``Engine`` with telemetry on over the two-worker pool and GETs the
endpoint while the pipeline runs: every body must decode as the
``repro.metrics/v2`` document (the reader ``repro top`` uses).  The first GET
after ``run()`` returns must list two ``workers`` whose ``pipeline.reads``,
``phmm.pairs`` and ``seed.candidates`` counters and ``mp.chunk_map_seconds``
count *equal* the run's ``CallResult.metrics`` — each chunk's reply follows
its worker's final whole snapshot on the same pipe, so on a fault-free run
the live plane and the result path agree exactly, with no waiting.  A file
with a ``__main__`` guard, not stdin: spawned workers re-import the main
module.
"""

import argparse
import threading
import time
import urllib.request

from repro.api import Engine
from repro.genome.fastq import read_fastq
from repro.observability.dashboard import parse_live_document
from repro.pipeline.config import PipelineConfig, TelemetryConfig


#: Counters the live view must report exactly as the result path does.
COUNTERS = ("pipeline.reads", "phmm.pairs", "seed.candidates")


def totals(snap) -> dict:
    """The compared numbers of one snapshot (live or result path)."""
    chunks = snap.histogram("mp.chunk_map_seconds") or {"count": 0}
    out = {name: snap.counter(name) for name in COUNTERS}
    out["mp.chunk_map_seconds count"] = chunks["count"]
    return out


def fetch(url: str) -> bytes:
    with urllib.request.urlopen(url, timeout=5) as resp:
        return resp.read()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("reference")
    parser.add_argument("reads")
    args = parser.parse_args()

    reads = read_fastq(args.reads)
    config = PipelineConfig(
        telemetry=TelemetryConfig(enabled=True, interval=0.1, port=0),
    )
    mid_run = []
    with Engine.from_fasta(args.reference, config, workers=2) as engine:
        url = engine.telemetry_url
        assert url, "telemetry endpoint did not come up"
        done = threading.Event()

        def poller() -> None:
            while not done.is_set():
                try:
                    mid_run.append(fetch(url))
                except OSError:
                    pass
                time.sleep(0.05)

        t = threading.Thread(target=poller)
        t.start()
        result = engine.run(reads)
        done.set()
        t.join()
        snap, workers = parse_live_document(fetch(url), url)
        want, live = totals(result.metrics), totals(snap)
        assert want["pipeline.reads"] == len(reads), want
        assert len(workers) == 2 and live == want, (
            f"live view incomplete when run() returned: {len(workers)} "
            f"workers, live {live} != result path {want}"
        )
    assert mid_run, "no successful GET while the pipeline ran"
    for body in mid_run:
        parse_live_document(body)
    print(f"telemetry document OK: {len(mid_run)} mid-run bodies "
          f"decoded, 2 workers, live == result path: {want}")


if __name__ == "__main__":
    main()
