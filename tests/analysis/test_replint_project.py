"""Interprocedural project-pass tests: symbol table, call graph, dataflow.

Fixtures are synthetic multi-file packages fed through
:func:`replint.lint_files`, so module names derive from ``__init__.py``
entries in the file set without touching disk.  Several tests assert the
acceptance property explicitly: the same fixture linted with
``project=False`` (the old per-file engine) reports nothing.
"""

import ast
import textwrap

from replint import ReplintConfig, lint_files
from replint.callgraph import build_call_graph, worker_entry_points
from replint.symbols import build_symbol_table, module_name_for


def lint_project(files: dict, config=None, **kw):
    sources = [(path, textwrap.dedent(src)) for path, src in files.items()]
    return lint_files(sources, config, **kw)


def ids(findings) -> list:
    return [f.rule_id for f in findings]


def pkg(files: dict, root: str = "proj") -> dict:
    """Add the ``__init__.py`` chain for every directory under ``root``."""
    out = dict(files)
    for path in files:
        parts = path.split("/")[:-1]
        for i in range(len(parts)):
            out.setdefault("/".join(parts[: i + 1]) + "/__init__.py", "")
    return out


def table_for(files: dict):
    return build_symbol_table(
        [
            (path, textwrap.dedent(src), ast.parse(textwrap.dedent(src)))
            for path, src in pkg(files).items()
        ]
    )


class TestSymbolTable:
    def test_module_names_from_file_set(self):
        file_set = {"proj/__init__.py", "proj/sub/__init__.py", "proj/sub/mod.py"}
        assert module_name_for("proj/sub/mod.py", file_set) == "proj.sub.mod"
        assert module_name_for("proj/sub/__init__.py", file_set) == "proj.sub"
        assert module_name_for("loose.py", file_set) == "loose"

    def test_resolves_from_import(self):
        table = table_for(
            {
                "proj/a.py": "def helper():\n    return 1\n",
                "proj/b.py": "from proj.a import helper\n",
            }
        )
        fn = table.resolve_function("proj.b", "helper")
        assert fn is not None and fn.qualname == "proj.a.helper"

    def test_resolves_relative_import(self):
        table = table_for(
            {
                "proj/a.py": "def helper():\n    return 1\n",
                "proj/b.py": "from .a import helper as h\n",
            }
        )
        fn = table.resolve_function("proj.b", "h")
        assert fn is not None and fn.qualname == "proj.a.helper"

    def test_resolves_package_reexport(self):
        table = build_symbol_table(
            [
                ("proj/__init__.py", "from proj.core import run\n",
                 ast.parse("from proj.core import run\n")),
                ("proj/core.py", "def run():\n    return 1\n",
                 ast.parse("def run():\n    return 1\n")),
                ("use.py", "import proj\n", ast.parse("import proj\n")),
            ]
        )
        fn = table.resolve_function("use", "proj.run")
        assert fn is not None and fn.qualname == "proj.core.run"

    def test_methods_and_mutable_globals(self):
        table = table_for(
            {
                "proj/m.py": """
                _CACHE = {}
                LIMIT = 3

                class Engine:
                    def run(self):
                        return 1
                """,
            }
        )
        mod = table.modules["proj.m"]
        assert "Engine.run" in mod.functions
        assert list(mod.mutable_globals) == ["_CACHE"]
        fn = table.resolve_function("proj.m", "Engine.run")
        assert fn is not None and not fn.nested


class TestCallGraph:
    FILES = {
        "proj/a.py": """
        from proj.b import middle

        def entry(x):
            return middle(x)
        """,
        "proj/b.py": """
        from proj.c import leaf

        def middle(x):
            return leaf(x)
        """,
        "proj/c.py": """
        def leaf(x):
            return x
        """,
    }

    def test_reachability_with_path(self):
        table = table_for(self.FILES)
        graph = build_call_graph(table)
        reach = graph.reachable_from({"proj.a.entry"})
        assert reach["proj.c.leaf"] == (
            "proj.a.entry", "proj.b.middle", "proj.c.leaf",
        )

    def test_worker_roots_from_dispatch_site(self):
        table = table_for(
            {
                "proj/jobs.py": """
                def run_chunk(payload):
                    return payload

                def launch(ctx):
                    return ChunkDispatcher(ctx, 4, run_chunk)
                """,
            }
        )
        graph = build_call_graph(table)
        roots = worker_entry_points(table, graph, ReplintConfig())
        assert "proj.jobs.run_chunk" in roots
        assert "ChunkDispatcher" in roots["proj.jobs.run_chunk"]

    def test_worker_roots_from_config_glob(self):
        table = table_for({"proj/work.py": "def grind(x):\n    return x\n"})
        graph = build_call_graph(table)
        config = ReplintConfig(worker_entrypoints=["proj.work.*"])
        roots = worker_entry_points(table, graph, config)
        assert "proj.work.grind" in roots


class TestCrossCallDomainRPL101:
    FILES = {
        "proj/stats.py": """
        import numpy as np

        def normalise(x):
            return np.log(x)
        """,
        "proj/use.py": """
        import numpy as np
        from proj.stats import normalise

        def f(x):
            return np.log(normalise(x))
        """,
    }

    def test_per_file_engine_misses_it(self):
        assert lint_project(pkg(self.FILES), project=False) == []

    def test_project_pass_catches_cross_module_double_log(self):
        findings = lint_project(pkg(self.FILES))
        assert ids(findings) == ["RPL101"]
        assert "double log" in findings[0].message
        assert findings[0].path == "proj/use.py"

    def test_annotation_seeds_domain(self):
        findings = lint_project(
            pkg(
                {
                    "proj/a.py": """
                    def posterior(x):  # replint: returns=log
                        return x
                    """,
                    "proj/b.py": """
                    import numpy as np
                    from proj.a import posterior

                    def f(x):
                        return np.log(posterior(x))
                    """,
                }
            )
        )
        assert ids(findings) == ["RPL101"]

    def test_clean_exp_of_log_return(self):
        findings = lint_project(
            pkg(
                {
                    "proj/a.py": """
                    import numpy as np

                    def normalise(x):
                        return np.log(x)
                    """,
                    "proj/b.py": """
                    import numpy as np
                    from proj.a import normalise

                    def f(x):
                        return np.exp(normalise(x))
                    """,
                }
            )
        )
        assert findings == []

    def test_suppression(self):
        files = dict(self.FILES)
        files["proj/use.py"] = """
        import numpy as np
        from proj.stats import normalise

        def f(x):
            return np.log(normalise(x))  # replint: disable=RPL101
        """
        assert lint_project(pkg(files)) == []


class TestCrossCallDomainRPL102:
    FILES = {
        "proj/kernels.py": """
        def loglik(x):
            return x
        """,
        "proj/mix.py": """
        from proj.kernels import loglik

        def scale(weights):
            return weights

        def combine(x):
            return scale(loglik(x))
        """,
    }

    def test_per_file_engine_misses_it(self):
        assert lint_project(pkg(self.FILES), project=False) == []

    def test_log_return_into_linear_param(self):
        findings = lint_project(pkg(self.FILES))
        assert ids(findings) == ["RPL102"]
        assert "'weights'" in findings[0].message

    def test_param_annotation_overrides_name(self):
        files = dict(self.FILES)
        # The parameter is *named* like linear data but annotated log-domain,
        # so the handoff is consistent and nothing fires.
        files["proj/mix.py"] = """
        from proj.kernels import loglik

        def scale(weights):  # replint: param.weights=log
            return weights

        def combine(x):
            return scale(loglik(x))
        """
        assert lint_project(pkg(files)) == []

    def test_suppression(self):
        files = dict(self.FILES)
        files["proj/mix.py"] = """
        from proj.kernels import loglik

        def scale(weights):
            return weights

        def combine(x):
            return scale(loglik(x))  # replint: disable=RPL102
        """
        assert lint_project(pkg(files)) == []


class TestWorkerGlobalMutationRPL801:
    FILES = {
        "proj/util/cache.py": """
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value
        """,
        "proj/jobs.py": """
        from proj.util.cache import remember

        def run_chunk(payload):
            remember(payload, 1)

        def launch(ctx):
            return ChunkDispatcher(ctx, 4, run_chunk)
        """,
    }

    def test_per_file_engine_misses_it(self):
        # Neither module matches worker_modules, so per-file RPL301 is blind
        # to this — the mutation only matters because of the dispatch edge.
        assert lint_project(pkg(self.FILES), project=False) == []

    def test_mutation_reachable_from_worker_root(self):
        findings = lint_project(pkg(self.FILES))
        assert ids(findings) == ["RPL801"]
        assert findings[0].path == "proj/util/cache.py"
        assert "run_chunk -> remember" in findings[0].message

    def test_clean_state_through_arguments(self):
        files = dict(self.FILES)
        files["proj/util/cache.py"] = """
        def remember(cache, key, value):
            cache[key] = value
        """
        files["proj/jobs.py"] = """
        from proj.util.cache import remember

        def run_chunk(payload):
            remember({}, payload, 1)

        def launch(ctx):
            return ChunkDispatcher(ctx, 4, run_chunk)
        """
        assert lint_project(pkg(files)) == []

    def test_clean_without_dispatch_edge(self):
        files = dict(self.FILES)
        files["proj/jobs.py"] = """
        from proj.util.cache import remember

        def run_chunk(payload):
            remember(payload, 1)
        """
        assert lint_project(pkg(files)) == []

    def test_suppression_at_mutation_site(self):
        files = dict(self.FILES)
        files["proj/util/cache.py"] = """
        _CACHE = {}

        def remember(key, value):
            _CACHE[key] = value  # replint: disable=RPL801
        """
        assert lint_project(pkg(files)) == []


class TestForkUnsafeCaptureRPL802:
    def test_lambda_trigger(self):
        findings = lint_project(
            pkg(
                {
                    "proj/jobs.py": """
                    def launch(ctx):
                        return ChunkDispatcher(ctx, 4, lambda x: x)
                    """,
                }
            )
        )
        assert ids(findings) == ["RPL802"]
        assert "lambda" in findings[0].message

    def test_bound_method_trigger(self):
        findings = lint_project(
            pkg(
                {
                    "proj/jobs.py": """
                    class Driver:
                        def work(self, x):
                            return x

                        def go(self, ctx):
                            return ctx.Process(target=self.work)
                    """,
                }
            )
        )
        assert ids(findings) == ["RPL802"]
        assert "bound method self.work" in findings[0].message

    def test_nested_function_trigger(self):
        findings = lint_project(
            pkg(
                {
                    "proj/jobs.py": """
                    def launch(ctx):
                        def inner(x):
                            return x
                        return ctx.Process(target=inner)
                    """,
                }
            )
        )
        assert ids(findings) == ["RPL802"]
        assert "nested function inner()" in findings[0].message

    def test_clean_module_level_function(self):
        findings = lint_project(
            pkg(
                {
                    "proj/jobs.py": """
                    def run_chunk(payload):
                        return payload

                    def launch(ctx):
                        return ChunkDispatcher(ctx, 4, run_chunk)
                    """,
                }
            )
        )
        assert findings == []

    def test_clean_instance_attribute_holding_callable(self):
        # Regression guard: an attribute load is not a bound method — the
        # dispatcher pattern stores its module-level worker_fn on self.
        findings = lint_project(
            pkg(
                {
                    "proj/jobs.py": """
                    def _main(fn):
                        return fn()

                    class Dispatcher:
                        def __init__(self, fn):
                            self._fn = fn

                        def spawn(self, ctx):
                            return ctx.Process(target=_main, args=(self._fn,))
                    """,
                }
            )
        )
        assert findings == []

    def test_suppression(self):
        findings = lint_project(
            pkg(
                {
                    "proj/jobs.py": """
                    def launch(ctx):
                        return ChunkDispatcher(ctx, 4, lambda x: x)  # replint: disable=RPL802
                    """,
                }
            )
        )
        assert findings == []


class TestProjectPassPlumbing:
    def test_no_project_skips_interprocedural_rules(self):
        findings = lint_project(pkg(TestCrossCallDomainRPL101.FILES), project=False)
        assert findings == []

    def test_select_scopes_project_rules(self):
        files = pkg(TestWorkerGlobalMutationRPL801.FILES)
        assert ids(lint_project(files, ReplintConfig(select=["RPL801"]))) == ["RPL801"]
        assert lint_project(files, ReplintConfig(select=["RPL802"])) == []

    def test_syntax_error_file_does_not_break_project_pass(self):
        files = pkg(TestCrossCallDomainRPL101.FILES)
        files["proj/broken.py"] = "def broken(:\n"
        findings = lint_project(files)
        assert ids(findings) == ["RPL000", "RPL101"]
