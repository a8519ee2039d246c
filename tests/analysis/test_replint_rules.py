"""Per-rule replint tests: a trigger, a clean pass, and a suppression each.

Snippets are linted through :func:`replint.lint_source` with synthetic paths
so the path-scoped rules (worker/RNG-sanctioned modules) can be
exercised against the default configuration.
"""

import textwrap

from replint import ReplintConfig, lint_source

GENERIC = "src/repro/pipeline/example.py"
WORKER = "src/repro/parallel/example.py"
RNG_HOME = "src/repro/util/rng.py"


def lint(snippet: str, path: str = GENERIC, config: "ReplintConfig | None" = None):
    return lint_source(textwrap.dedent(snippet), path, config)


def ids(findings) -> list:
    return [f.rule_id for f in findings]


class TestRPL101DomainMixCall:
    def test_trigger_double_log(self):
        findings = lint(
            """
            import numpy as np

            def f(loglik):
                return np.log(loglik)
            """
        )
        assert ids(findings) == ["RPL101"]
        assert "double log" in findings[0].message
        assert findings[0].line == 5

    def test_trigger_exp_of_linear(self):
        findings = lint(
            """
            import numpy as np

            def f(weights):
                return np.exp(weights)
            """
        )
        assert ids(findings) == ["RPL101"]

    def test_clean(self):
        findings = lint(
            """
            import numpy as np

            def f(loglik, weights):
                a = np.exp(loglik)
                b = np.log(weights)
                return a, b
            """
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            import numpy as np

            def f(loglik):
                return np.log(loglik)  # replint: disable=RPL101
            """
        )
        assert findings == []


class TestRPL102DomainMixArith:
    def test_trigger_log_plus_linear(self):
        findings = lint(
            """
            def f(loglik, weights):
                return loglik + weights
            """
        )
        assert ids(findings) == ["RPL102"]

    def test_clean_same_domain(self):
        findings = lint(
            """
            import numpy as np

            def f(loglik, log_prior, weights):
                a = loglik + log_prior
                b = loglik + np.log(weights)
                return a, b
            """
        )
        assert findings == []

    def test_unclassified_operands_not_flagged(self):
        findings = lint(
            """
            def f(a, b):
                return a + b
            """
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            def f(loglik, weights):
                return loglik + weights  # replint: disable=RPL102
            """
        )
        assert findings == []


class TestRPL201UnseededRng:
    def test_trigger(self):
        findings = lint(
            """
            import numpy as np

            def f():
                return np.random.normal(size=3)
            """
        )
        assert ids(findings) == ["RPL201"]
        assert "np.random.normal" in findings[0].message

    def test_trigger_default_rng(self):
        findings = lint(
            """
            import numpy as np

            def f():
                return np.random.default_rng(0)
            """
        )
        assert ids(findings) == ["RPL201"]

    def test_clean_generator_api(self):
        findings = lint(
            """
            def f(rng):
                return rng.normal(size=3)
            """
        )
        assert findings == []

    def test_sanctioned_module_exempt(self):
        findings = lint(
            """
            import numpy as np

            def resolve_rng(seed):
                return np.random.default_rng(seed)
            """,
            path=RNG_HOME,
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            import numpy as np

            def f():
                return np.random.default_rng(0)  # replint: disable=RPL201
            """
        )
        assert findings == []


class TestRPL301WorkerSharedState:
    SNIPPET = """
    _CACHE = {}

    def worker(task):
        _CACHE[task.key] = task
        return _CACHE
    """

    def test_trigger_in_worker_module(self):
        findings = lint(self.SNIPPET, path=WORKER)
        assert set(ids(findings)) == {"RPL301"}
        assert "_CACHE" in findings[0].message

    def test_same_code_outside_worker_module_clean(self):
        findings = lint(self.SNIPPET, path=GENERIC)
        assert findings == []

    def test_clean_state_through_arguments(self):
        findings = lint(
            """
            def worker(task, cache):
                cache[task.key] = task
                return cache
            """,
            path=WORKER,
        )
        assert findings == []

    def test_immutable_module_constant_clean(self):
        findings = lint(
            """
            BATCH = 256

            def worker(tasks):
                return tasks[:BATCH]
            """,
            path=WORKER,
        )
        assert findings == []

    def test_global_statement_flagged(self):
        findings = lint(
            """
            _STATE = dict()

            def init():
                global _STATE
            """,
            path=WORKER,
        )
        assert "RPL301" in ids(findings)

    def test_suppression(self):
        findings = lint(
            """
            _WORKER = {}

            def init(payload):
                _WORKER["payload"] = payload  # replint: disable=RPL301
            """,
            path=WORKER,
        )
        assert findings == []


class TestRPL401BroadExcept:
    def test_trigger_except_exception(self):
        findings = lint(
            """
            def f():
                try:
                    return work()
                except Exception:
                    return None
            """
        )
        assert ids(findings) == ["RPL401"]

    def test_trigger_bare_except(self):
        findings = lint(
            """
            def f():
                try:
                    return work()
                except:
                    return None
            """
        )
        assert ids(findings) == ["RPL401"]
        assert "bare except" in findings[0].message

    def test_trigger_in_tuple(self):
        findings = lint(
            """
            def f():
                try:
                    return work()
                except (ValueError, Exception):
                    return None
            """
        )
        assert ids(findings) == ["RPL401"]

    def test_clean_specific(self):
        findings = lint(
            """
            def f():
                try:
                    return work()
                except (ValueError, KeyError):
                    return None
            """
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            def f():
                try:
                    return work()
                except Exception:  # replint: disable=RPL401
                    return None
            """
        )
        assert findings == []


class TestRPL601MetricNameGrammar:
    def test_trigger_no_subsystem_prefix(self):
        findings = lint(
            """
            from repro.observability import current

            def f():
                current().inc("reads")
            """
        )
        assert ids(findings) == ["RPL601"]
        assert "subsystem.metric grammar" in findings[0].message

    def test_trigger_not_snake_case(self):
        findings = lint(
            """
            import repro.observability.trace as trace

            def f():
                trace.instant("MP.chunkRetry")
            """
        )
        assert ids(findings) == ["RPL601"]

    def test_trigger_unregistered_prefix(self):
        findings = lint(
            """
            from repro.observability import current

            def f(x):
                current().observe("zz.latency", x)
            """
        )
        assert ids(findings) == ["RPL601"]
        assert "unregistered subsystem prefix 'zz'" in findings[0].message

    def test_dynamic_names_out_of_scope(self):
        findings = lint(
            """
            from repro.observability import current

            def f(prefix):
                current().inc(f"{prefix}.chunk_retries")
            """
        )
        assert findings == []

    def test_clean_registered_names(self):
        findings = lint(
            """
            import repro.observability.trace as trace
            from repro.observability import current

            def f(x):
                current().inc("mp.worker_deaths")
                current().observe("phmm.pair_cells", x)
                trace.counter_sample("pipeline.reads", 1)
            """
        )
        assert findings == []

    def test_clean_telemetry_plane_names(self):
        """The live-telemetry names ride the existing mp/obs prefixes —
        the grammar accepts them without any vocabulary growth."""
        findings = lint(
            """
            import repro.observability.trace as trace
            from repro.observability import current

            def f(age):
                current().gauge_max("mp.worker_heartbeat_age_seconds_max", age)
                current().inc("mp.worker_stalls")
                current().inc("obs.telemetry_deltas")
                current().inc("obs.telemetry_decode_errors")
                trace.instant("mp.worker_stall", pid=1)
            """
        )
        assert findings == []

    def test_trigger_telemetry_name_off_grammar(self):
        """A hypothetical dedicated 'livetel' subsystem is not in the
        registered vocabulary; the watchdog counter must stay under mp.*"""
        findings = lint(
            """
            from repro.observability import current

            def f(age):
                current().gauge_max("livetel.heartbeat_age", age)
            """
        )
        assert ids(findings) == ["RPL601"]
        assert "unregistered subsystem prefix 'livetel'" in findings[0].message

    def test_suppression(self):
        findings = lint(
            """
            from repro.observability import current

            def f():
                current().inc("reads")  # replint: disable=RPL601
            """
        )
        assert findings == []


class TestRPL803SharedMemoryScope:
    def test_trigger_unowned_handle(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def leak(n):
                shm = SharedMemory(create=True, size=n)
                return shm.name
            """
        )
        assert ids(findings) == ["RPL803"]
        assert "owning scope" in findings[0].message

    def test_trigger_import_module_spelling(self):
        findings = lint(
            """
            from multiprocessing import shared_memory

            def leak(n):
                shared_memory.SharedMemory(create=True, size=n)
            """
        )
        assert ids(findings) == ["RPL803"]

    def test_clean_context_manager(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def ok(name):
                with SharedMemory(name=name) as shm:
                    return bytes(shm.buf)
            """
        )
        assert findings == []

    def test_clean_closed_in_scope(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def ok(n):
                shm = SharedMemory(create=True, size=n)
                try:
                    return bytes(shm.buf)
                finally:
                    shm.close()
            """
        )
        assert findings == []

    def test_clean_returned_handle(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def make(n):
                shm = SharedMemory(create=True, size=n)
                return shm
            """
        )
        assert findings == []

    def test_sibling_return_does_not_transfer_ownership(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def make(n):
                shm = SharedMemory(create=True, size=n)
                return shm

            def leak(n):
                shm = SharedMemory(create=True, size=n)
                return shm.name
            """
        )
        assert [(f.rule_id, f.line) for f in findings] == [("RPL803", 9)]

    def test_clean_stored_on_owner(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            class Pool:
                def __init__(self, n):
                    self._shm = SharedMemory(create=True, size=n)
            """
        )
        assert findings == []

    def test_no_import_no_findings(self):
        findings = lint(
            """
            def f(SharedMemory, n):
                SharedMemory(create=True, size=n)
            """
        )
        assert findings == []

    def test_suppression(self):
        findings = lint(
            """
            from multiprocessing.shared_memory import SharedMemory

            def leak(n):
                shm = SharedMemory(create=True, size=n)  # replint: disable=RPL803
                return shm.name
            """
        )
        assert findings == []


class TestSuppressionMechanics:
    def test_disable_all(self):
        findings = lint(
            """
            import numpy as np

            def f():
                return np.random.normal()  # replint: disable=all
            """
        )
        assert findings == []

    def test_wrong_id_does_not_suppress(self):
        findings = lint(
            """
            import numpy as np

            def f():
                return np.random.normal()  # replint: disable=RPL401
            """
        )
        assert ids(findings) == ["RPL201"]

    def test_multiple_ids(self):
        findings = lint(
            """
            import numpy as np

            def f(loglik):
                return np.log(loglik) + np.random.normal()  # replint: disable=RPL101, RPL201
            """
        )
        assert findings == []

    def test_multiple_ids_one_stale(self):
        # The listed-but-unmatched ID does not block the matching one.
        findings = lint(
            """
            import numpy as np

            def f(loglik):
                return np.log(loglik)  # replint: disable=RPL101,RPL301
            """
        )
        assert findings == []

    def test_suppression_on_decorated_def(self):
        # The finding sits on a decorator line of a decorated def; the
        # suppression must match there, not on the def line below.
        findings = lint(
            """
            import numpy as np

            def register(rng):
                def wrap(fn):
                    return fn
                return wrap

            @register(np.random.default_rng(0))  # replint: disable=RPL201
            def f():
                return 1
            """
        )
        assert findings == []


class TestParseError:
    def test_syntax_error_reported_as_rpl000(self):
        findings = lint("def broken(:\n")
        assert ids(findings) == ["RPL000"]
        assert findings[0].rule_name == "parse-error"
