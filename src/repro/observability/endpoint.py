"""The telemetry plane's stdlib HTTP endpoint.

:class:`TelemetryEndpoint` serves whatever text its ``collect()`` callable
returns — in production the live ``repro.metrics/v2`` JSON document built
by :meth:`TelemetryAggregator.live_document` — from a daemon
``http.server`` thread: no third-party client library, no background
state; every GET collects fresh.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable

from repro.errors import ObservabilityError
from repro.observability.registry import MetricsRegistry, current

__all__ = ["TelemetryEndpoint"]


class _Handler(BaseHTTPRequestHandler):
    collect: "Callable[[], str]" = staticmethod(lambda: "")
    registry: MetricsRegistry

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        if path == "/metrics":
            try:
                body = type(self).collect().encode("utf-8")
            except Exception as exc:  # noqa: BLE001 -- a failed collect must answer 500, never kill the server
                type(self).registry.inc("obs.collect_errors")
                self.send_error(
                    500, explain=f"collect failed: {type(exc).__name__}: {exc}"
                )
                return
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif path == "/":
            body = b'repro telemetry endpoint; GET <a href="/metrics">/metrics</a>\n'
            self.send_response(200)
            self.send_header("Content-Type", "text/html; charset=utf-8")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        else:
            self.send_error(404)

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        pass  # polls are high-frequency; never spam stderr


class TelemetryEndpoint:
    """A daemon-thread HTTP server exposing ``collect()`` at ``/metrics``.

    ``port=0`` binds an ephemeral port (tests, benches); the bound port is
    available after :meth:`start` via :attr:`port` / :attr:`url`.  A
    ``collect()`` that raises answers 500 with the exception's type and
    message, and counts ``obs.collect_errors`` in the registry that was
    current when the endpoint was made.
    """

    def __init__(
        self,
        collect: "Callable[[], str]",
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._collect = collect
        self._registry = current()
        self._host = host
        self._port = int(port)
        self._server: "ThreadingHTTPServer | None" = None
        self._thread: "threading.Thread | None" = None

    def start(self) -> str:
        """Bind + serve; returns the document URL (idempotent)."""
        if self._server is not None:
            return self.url
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"collect": staticmethod(self._collect), "registry": self._registry},
        )
        try:
            server = ThreadingHTTPServer((self._host, self._port), handler)
        except OSError as exc:
            raise ObservabilityError(
                f"cannot bind telemetry endpoint on "
                f"{self._host}:{self._port}: {exc}"
            ) from exc
        server.daemon_threads = True
        self._server = server
        self._port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="repro-telemetry-endpoint",
            daemon=True,
        )
        self._thread.start()
        return self.url

    @property
    def port(self) -> int:
        return self._port

    @property
    def url(self) -> str:
        return f"http://{self._host}:{self._port}/metrics"

    def close(self) -> None:
        server = self._server
        if server is None:
            return
        server.shutdown()
        server.server_close()
        self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
