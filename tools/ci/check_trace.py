"""Check a Chrome trace written by ``repro call --trace``.

    python tools/ci/check_trace.py trace.json --min-worker-lanes 2 \
        --require map_reads mp.chunk_begin

The trace carries the run manifest, at least ``--min-worker-lanes`` worker
``process_name`` rows (only workers that *survive* ship events home), and an
event named each ``--require`` argument.  CI's ``metrics-smoke`` job checks
the clean two-worker run with it and ``fault-smoke`` the faulted one, where
the required names are the death, timeout and retry instants.
"""

import argparse
import json


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace")
    parser.add_argument("--min-worker-lanes", type=int, default=1)
    parser.add_argument("--require", nargs="*", default=[], metavar="EVENT")
    args = parser.parse_args()

    with open(args.trace) as fh:
        doc = json.load(fh)
    events = doc["traceEvents"]
    worker_lanes = {
        ev["pid"] for ev in events
        if ev["ph"] == "M" and ev["name"] == "process_name"
        and ev["args"]["name"].startswith("worker")
    }
    assert len(worker_lanes) >= args.min_worker_lanes, f"worker lanes: {worker_lanes}"
    names = {ev["name"] for ev in events}
    missing = [needed for needed in args.require if needed not in names]
    assert not missing, f"missing events: {missing}"
    assert doc["otherData"]["schema"] == "repro.manifest/v1"
    print(f"trace OK: {len(events)} events across {len(worker_lanes)} worker "
          f"lanes, with {', '.join(args.require) or 'no required events'}")


if __name__ == "__main__":
    main()
