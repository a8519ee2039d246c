"""``repro top``: a live terminal dashboard over the telemetry endpoint.

Split into three testable layers:

* :func:`parse_live_document` — decode one endpoint body (the
  ``repro.metrics/v2`` document plus ``workers``) into a
  :class:`MetricsSnapshot` and :class:`WorkerView` rows, through the same
  schema check metrics files get.  The body comes off a socket, so every
  defect is an :class:`ObservabilityError` (also what the CI smoke job
  runs against a live endpoint);
* :func:`render_top` — a pure function from two successive snapshots to
  one dashboard frame (rates are counter differences over the elapsed
  time, quantiles from ``MetricsSnapshot.histogram_quantile``);
* :func:`run_top` — the fetch/render/sleep loop behind the CLI command,
  with injectable fetcher and output stream so tests can drive it without
  sockets or a TTY.
"""

from __future__ import annotations

import json
import math
import sys
import time
import urllib.request
from typing import IO, Any, Callable

from repro.errors import ObservabilityError
from repro.observability.export import format_span_tree, snapshot_from_document
from repro.observability.livestream import WorkerView
from repro.observability.snapshot import MetricsSnapshot

__all__ = ["fetch_live", "parse_live_document", "render_top", "run_top"]

#: One decoded endpoint body.
LiveView = tuple[MetricsSnapshot, list[WorkerView]]


def _worker_views(entries: Any) -> "list[WorkerView]":
    try:
        views = [WorkerView(**entry) for entry in entries]
    except TypeError as exc:  # not a list of mappings; missing/extra fields
        raise ObservabilityError(f"malformed workers section: {exc}") from exc
    for view in views:
        for field, value in vars(view).items():
            if not isinstance(value, (int, float)) and not (
                value is None and field == "busy_chunk"
            ):
                raise ObservabilityError(
                    f"malformed workers section: {field}={value!r}"
                )
    return views


def parse_live_document(body: "str | bytes", source: str = "<body>") -> LiveView:
    """Decode one endpoint body; raises :class:`ObservabilityError` only."""
    try:
        doc = json.loads(body)
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ObservabilityError(f"{source} did not answer JSON: {exc}") from exc
    snapshot = snapshot_from_document(doc, source)
    return snapshot, _worker_views(doc.get("workers", []))


def fetch_live(url: str, timeout: float = 5.0) -> LiveView:
    """GET + decode the live document (``OSError`` on transport failure)."""
    with urllib.request.urlopen(url, timeout=timeout) as resp:
        return parse_live_document(resp.read(), url)


# -- rendering ---------------------------------------------------------------


def _si(value: "float | None") -> str:
    if value is None or math.isnan(value):
        return "-"
    for factor, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= factor:
            return f"{value / factor:.1f}{suffix}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


def _secs(value: "float | None") -> str:
    if value is None or math.isnan(value):
        return "-"
    if value < 1e-3:
        return f"{value * 1e6:.0f}us"
    if value < 1.0:
        return f"{value * 1e3:.1f}ms"
    return f"{value:.2f}s"


def render_top(
    curr: MetricsSnapshot,
    prev: "MetricsSnapshot | None",
    elapsed: float,
    workers: "list[WorkerView]",
    *,
    source: str,
    clock_text: str,
) -> str:
    """One dashboard frame from two successive snapshots (pure function)."""

    def rate(*names: str) -> "float | None":
        if prev is None or elapsed <= 0 or not all(n in curr.counters for n in names):
            return None
        diffs = [curr.counter(n) - prev.counter(n) for n in names]
        if min(diffs) < 0:
            return None  # a counter shrank: the endpoint restarted
        return sum(diffs) / elapsed

    candidates, seeded = curr.counter("seed.candidates"), curr.counter("seed.reads")
    chunk_seconds = curr.histogram("mp.chunk_map_seconds")
    lines = [f"repro top - {source}  [{clock_text}]", ""]
    lines.append(
        "pipeline   reads {}   reads/s {}   candidates/read {}   filtered {}".format(
            _si(curr.counters.get("pipeline.reads")),
            _si(rate("pipeline.reads")),
            f"{candidates / seeded:.2f}" if seeded else "-",
            _si(curr.counters.get("seed.filtered")),
        )
    )
    lines.append(
        "phmm       DP cells/s {}   chunk p50/p90/p99 {} / {} / {}".format(
            _si(rate("phmm.forward_cells", "phmm.backward_cells")),
            *(
                _secs(curr.histogram_quantile("mp.chunk_map_seconds", q))
                for q in (0.5, 0.9, 0.99)
            ),
        )
    )
    lines.append(
        "chunks     ok {}   retries {}   timeouts {}   deaths {}   stalls {}".format(
            _si(None if chunk_seconds is None else chunk_seconds["count"]),
            _si(curr.counter("mp.chunk_retries")),
            _si(curr.counter("mp.chunk_timeouts")),
            _si(curr.counter("mp.worker_deaths")),
            _si(curr.counter("mp.worker_stalls")),
        )
    )
    lines.append(
        "telemetry  workers {}   deltas {}   fleet reads/s {}   fleet cells/s {}".format(
            len(workers),
            _si(curr.counters.get("obs.telemetry_deltas")),
            _si(sum(w.reads_per_second for w in workers)),
            _si(sum(w.cells_per_second for w in workers)),
        )
    )
    lines.append("")
    if workers:
        lines.append(
            f"{'worker':>8}  {'state':<16} {'beat':>8} {'reads/s':>9} {'cells/s':>9}"
        )
        for w in workers:
            if w.stalled:
                state = "STALLED"
            elif w.busy_chunk is not None:
                state = f"busy {_secs(w.busy_seconds)}"
            else:
                state = "idle"
            lines.append(
                "{:>8}  {:<16} {:>8} {:>9} {:>9}".format(
                    w.pid,
                    state,
                    _secs(w.heartbeat_age_seconds),
                    _si(w.reads_per_second),
                    _si(w.cells_per_second),
                )
            )
    else:
        lines.append("(no workers publishing yet)")
    if curr.spans:
        lines += ["", "spans:", *format_span_tree(curr.spans)]
    return "\n".join(lines) + "\n"


def run_top(
    url: str,
    *,
    interval: float = 1.0,
    iterations: "int | None" = None,
    clear: "bool | None" = None,
    out: "IO[str] | None" = None,
    fetch_fn: "Callable[[str], LiveView] | None" = None,
) -> int:
    """The ``repro top`` loop: fetch, render, repeat until interrupted.

    ``iterations=None`` runs until Ctrl-C.  With a finite iteration count
    (``--once``) an unreachable endpoint or a malformed body raises so the
    CLI exits non-zero; in the endless mode either renders a waiting frame
    and the loop keeps retrying.
    """
    if interval <= 0:
        raise ObservabilityError(f"interval must be > 0, got {interval}")
    stream: "IO[str]" = out if out is not None else sys.stdout
    fetch = fetch_fn if fetch_fn is not None else fetch_live
    if clear is None:
        clear = iterations is None and stream.isatty()
    prev: "MetricsSnapshot | None" = None
    prev_at = 0.0
    n = 0
    try:
        while iterations is None or n < iterations:
            if n:
                time.sleep(interval)
            now = time.monotonic()
            try:
                curr, workers = fetch(url)
            except (OSError, ObservabilityError) as exc:
                if iterations is not None:
                    raise ObservabilityError(f"cannot read {url}: {exc}") from exc
                frame = f"repro top - waiting for {url} ({exc})\n"
            else:
                frame = render_top(
                    curr,
                    prev,
                    now - prev_at,
                    workers,
                    source=url,
                    clock_text=time.strftime("%H:%M:%S"),
                )
                prev, prev_at = curr, now
            if clear:
                stream.write("\x1b[2J\x1b[H")
            stream.write(frame)
            stream.flush()
            n += 1
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        stream.write("\n")
    return 0
