"""Span nesting, exception safety, and thread isolation."""

import threading

import pytest

from repro.errors import ObservabilityError
from repro.observability import Laps, MetricsRegistry, current_path, detached, span, use


class TestSpanNesting:
    def test_nested_spans_build_a_tree(self):
        reg = MetricsRegistry()
        with use(reg):
            with span("outer"):
                with span("inner"):
                    pass
                with span("inner"):
                    pass
        snap = reg.snapshot()
        assert snap.span_count("outer") == 1
        assert snap.span_count("outer/inner") == 2
        assert snap.span_node("inner") is None  # nested, not top-level
        assert snap.span_seconds("outer") >= 0.0

    def test_sibling_spans_do_not_nest(self):
        reg = MetricsRegistry()
        with use(reg):
            with span("a"):
                pass
            with span("b"):
                pass
        snap = reg.snapshot()
        assert snap.span_count("a") == 1
        assert snap.span_count("b") == 1
        assert snap.span_node("a")["children"] == {}

    def test_reentering_same_name_accumulates(self):
        reg = MetricsRegistry()
        with use(reg):
            for _ in range(5):
                with span("stage"):
                    pass
        assert reg.snapshot().span_count("stage") == 5

    def test_current_path_tracks_stack(self):
        reg = MetricsRegistry()
        with use(reg):
            assert current_path() == ()
            with span("a"):
                assert current_path() == ("a",)
                with span("b"):
                    assert current_path() == ("a", "b")
                assert current_path() == ("a",)
            assert current_path() == ()


class TestLaps:
    def test_laps_are_children_of_the_open_span(self):
        reg = MetricsRegistry()
        with use(reg):
            with span("stage"):
                laps = Laps("first", "never")
                laps.lap("first")
                laps.lap("first")
                laps.record(count=3)
                with pytest.raises(KeyError):
                    laps.lap("undeclared")
        snap = reg.snapshot()
        assert snap.span_count("stage/first") == 3
        # A declared layer that never ran is in the tree, at zero seconds.
        assert snap.span_count("stage/never") == 3
        assert snap.span_seconds("stage/never") == 0.0
        assert snap.span_seconds("stage/first") <= snap.span_seconds("stage")


class TestDetached:
    def test_detached_roots_spans_and_restores_stack(self):
        """Worker entry points detach so inherited open spans (fork start
        method) don't silently re-root the worker's tree."""
        reg = MetricsRegistry()
        with use(reg):
            with span("outer"):
                with detached():
                    assert current_path() == ()
                    with span("chunk"):
                        pass
                assert current_path() == ("outer",)
        snap = reg.snapshot()
        assert snap.span_count("chunk") == 1  # top-level, not outer/chunk
        assert snap.span_node("outer")["children"] == {}


class TestSpanExceptionSafety:
    def test_span_records_time_when_body_raises(self):
        reg = MetricsRegistry()
        with use(reg):
            with pytest.raises(ValueError):
                with span("failing"):
                    raise ValueError("boom")
        snap = reg.snapshot()
        assert snap.span_count("failing") == 1
        assert snap.span_seconds("failing") >= 0.0

    def test_stack_restored_after_exception(self):
        reg = MetricsRegistry()
        with use(reg):
            with pytest.raises(RuntimeError):
                with span("outer"):
                    with span("inner"):
                        raise RuntimeError
            assert current_path() == ()
            with span("after"):
                pass
        snap = reg.snapshot()
        # "after" must be top-level, not trapped under the failed spans.
        assert snap.span_count("after") == 1
        assert snap.span_count("outer/inner") == 1

    def test_bad_span_names_rejected(self):
        with pytest.raises(ObservabilityError):
            with span(""):
                pass
        with pytest.raises(ObservabilityError):
            with span("a/b"):
                pass


class TestSpanThreads:
    def test_threads_have_independent_stacks(self):
        reg = MetricsRegistry()
        barrier = threading.Barrier(2)
        paths = {}

        def worker(name):
            with use(reg):
                with span(name):
                    barrier.wait()  # both spans open simultaneously
                    paths[name] = current_path()

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in ("t1", "t2")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert paths == {"t1": ("t1",), "t2": ("t2",)}
        snap = reg.snapshot()
        # Both land as top-level spans in the shared registry, not nested.
        assert snap.span_count("t1") == 1
        assert snap.span_count("t2") == 1
