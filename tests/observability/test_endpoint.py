"""The telemetry plane's stdlib HTTP endpoint: serving and lifecycle."""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ObservabilityError
from repro.observability import MetricsRegistry, TelemetryEndpoint, scope, to_json
from repro.observability.dashboard import parse_live_document


class TestEndpoint:
    def test_serves_parseable_metrics(self):
        reg = MetricsRegistry()
        reg.inc("pipeline.reads", 10)
        endpoint = TelemetryEndpoint(lambda: to_json(reg.snapshot()))
        url = endpoint.start()
        try:
            with urllib.request.urlopen(url, timeout=5) as resp:
                assert resp.headers["Content-Type"] == "application/json"
                body = resp.read()
            assert json.loads(body)["counters"] == {"pipeline.reads": 10}
            # Live updates: the next GET sees new values, no caching.
            reg.inc("pipeline.reads", 5)
            with urllib.request.urlopen(url, timeout=5) as resp:
                snap, workers = parse_live_document(resp.read(), url)
            assert snap.counter("pipeline.reads") == 15 and workers == []
        finally:
            endpoint.close()

    def test_index_page_and_404(self):
        endpoint = TelemetryEndpoint(lambda: "")
        url = endpoint.start()
        base = url.rsplit("/metrics", 1)[0]
        try:
            with urllib.request.urlopen(base + "/", timeout=5) as resp:
                assert b"/metrics" in resp.read()
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(base + "/nope", timeout=5)
            assert err.value.code == 404
        finally:
            endpoint.close()

    def test_collect_failure_returns_500_not_crash(self):
        def boom() -> str:
            raise RuntimeError("scrape-time failure")

        endpoint = TelemetryEndpoint(boom)
        url = endpoint.start()
        try:
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(url, timeout=5)
            assert err.value.code == 500
        finally:
            endpoint.close()

    def test_collect_failure_names_its_cause_and_counts(self):
        """The 500 body carries the exception's type and message, and each
        failure counts ``obs.collect_errors``."""

        def boom() -> str:
            raise KeyError("pipeline.reads")

        with scope() as reg:
            endpoint = TelemetryEndpoint(boom)
        url = endpoint.start()
        try:
            for _ in range(2):
                with pytest.raises(urllib.error.HTTPError) as err:
                    urllib.request.urlopen(url, timeout=5)
                assert err.value.code == 500
                body = err.value.read().decode("utf-8")
                assert "collect failed: KeyError: 'pipeline.reads'" in body
        finally:
            endpoint.close()
        assert reg.snapshot().counters == {"obs.collect_errors": 2}

    def test_close_is_idempotent_and_frees_port(self):
        endpoint = TelemetryEndpoint(lambda: "")
        endpoint.start()
        port = endpoint.port
        endpoint.close()
        endpoint.close()
        # The port is reusable immediately after close.
        rebound = TelemetryEndpoint(lambda: "", port=port)
        rebound.start()
        rebound.close()

    def test_bind_failure_raises_observability_error(self):
        holder = TelemetryEndpoint(lambda: "")
        holder.start()
        try:
            clash = TelemetryEndpoint(lambda: "", port=holder.port)
            with pytest.raises(ObservabilityError):
                clash.start()
        finally:
            holder.close()
