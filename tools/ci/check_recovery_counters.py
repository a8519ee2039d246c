"""Check the metrics of the ``fault-smoke`` job's faulted pool run.

    PYTHONPATH=src python tools/ci/check_recovery_counters.py metrics_faults.json

``repro call --workers 2 --fault-spec "crash:chunk=0;hang:chunk=1,secs=60"
--chunk-timeout 10`` must record exactly the injected faults: one worker
death and one timeout, both retried, no serial fallback.
"""

import sys

from repro.observability import read_metrics_json


def main(path: str) -> None:
    snap = read_metrics_json(path)
    assert snap.counter("mp.worker_deaths") == 1, snap.counters
    assert snap.counter("mp.chunk_timeouts") == 1, snap.counters
    assert snap.counter("mp.chunk_retries") == 2, snap.counters
    assert snap.counter("mp.serial_fallbacks") == 0, snap.counters
    assert snap.gauges["mp.workers_effective"] == 2
    # The faults hit the persistent pool: the crash killed a worker, not the
    # parent-owned segments, and the replacement re-attached.
    assert snap.gauges["mp.shm_bytes"] > 0
    print("recovery counters OK: 1 crash + 1 timeout, both retried "
          "against the persistent pool, no serial fallback needed")


if __name__ == "__main__":
    main(sys.argv[1])
