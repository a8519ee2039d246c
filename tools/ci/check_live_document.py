"""Read the live metrics document while a two-worker pool run is in flight.

    PYTHONPATH=src python tools/ci/check_live_document.py ref.fa reads.fq

Drives an ``Engine`` with telemetry on over the two-worker pool and GETs the
endpoint while the pipeline runs: every body must decode as the
``repro.metrics/v2`` document (the reader ``repro top`` uses), and the live
view must converge to two ``workers`` entries plus the full read count —
the sideband streams in-flight state, not just a post-run summary.  A file
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
from repro.pipeline.config import ParallelConfig, PipelineConfig, TelemetryConfig


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
        parallel=ParallelConfig(workers=2),
        telemetry=TelemetryConfig(enabled=True, interval=0.1, port=0),
    )
    mid_run = []
    with Engine.from_fasta(args.reference, config) as engine:
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
        engine.run(reads)
        done.set()
        t.join()
        deadline = time.monotonic() + 30
        while True:
            snap, workers = parse_live_document(fetch(url), url)
            live_reads = snap.counter("pipeline.reads")
            if len(workers) == 2 and live_reads == len(reads):
                break
            assert time.monotonic() < deadline, (
                "live view never caught up: "
                f"{len(workers)} workers, {live_reads} reads"
            )
            time.sleep(0.2)
    assert mid_run, "no successful GET while the pipeline ran"
    for body in mid_run:
        parse_live_document(body)
    print(f"telemetry document OK: {len(mid_run)} mid-run bodies "
          f"decoded, 2 workers, live reads == {len(reads)}")


if __name__ == "__main__":
    main()
