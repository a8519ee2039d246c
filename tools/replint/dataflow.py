"""Interprocedural dataflow scaffolding: a log/linear domain per function.

One small abstract interpreter runs over the project symbol table and call
graph:

* **Log/linear domain inference** — every function gets a *return domain*
  (``"log"``, ``"linear"`` or unknown) and every parameter a domain, from
  three sources in priority order: an explicit seed annotation on the
  ``def`` line (``# replint: returns=log`` / ``# replint: param.w=linear``),
  the naming grammar (``loglik`` vs ``weights`` — the same vocabulary the
  per-file RPL1xx rules use), and a fixpoint over ``return`` expressions
  where a call's domain is its callee's inferred return domain.  The
  cross-call checks in :mod:`replint.rules.domainflow` consume this.

The analysis is deliberately under-approximate: a value is only labelled
when the label is certain, so project findings are high-confidence.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from functools import cached_property

from replint.callgraph import CallGraph, build_call_graph, dotted, worker_entry_points
from replint.config import ReplintConfig
from replint.rules.base import (
    FileContext,
    looks_log_domain,
    looks_prob_domain,
)
from replint.symbols import FunctionInfo, SymbolTable, build_symbol_table

_RETURNS_RE = re.compile(r"#\s*replint:.*\breturns=(log|linear)\b")
_PARAM_RE = re.compile(r"#\s*replint:.*\bparam\.(\w+)=(log|linear)\b")

#: Fixpoint iteration cap; the lattices are tiny so 2-3 rounds suffice, the
#: cap only guards against pathological cyclic graphs.
_MAX_ROUNDS = 8

_LOG_FUNCS = frozenset({"np.log", "np.log2", "np.log10", "np.log1p", "math.log"})
_EXP_FUNCS = frozenset({"np.exp", "np.expm1", "math.exp"})



def _def_line_annotations(fn: FunctionInfo, source: str) -> "tuple[str | None, dict[str, str]]":
    """Seed annotations from the ``def`` line (and decorator-adjacent lines).

    Scans from the first decorator line to the end of the signature (the
    first line whose trimmed text ends with ``:``), so annotations work on
    multi-line signatures and decorated defs alike.
    """
    lines = source.splitlines()
    node = fn.node
    start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
    end = node.body[0].lineno - 1 if node.body else node.lineno
    returns: "str | None" = None
    params: dict[str, str] = {}
    for raw in lines[start:end]:
        m = _RETURNS_RE.search(raw)
        if m:
            returns = m.group(1)
        for pm in _PARAM_RE.finditer(raw):
            params[pm.group(1)] = pm.group(2)
    return returns, params


def _name_domain(name: "str | None") -> "str | None":
    if looks_log_domain(name):
        return "log"
    if looks_prob_domain(name):
        return "linear"
    return None


@dataclass
class ProjectContext:
    """Everything the project-wide passes may inspect."""

    files: list[FileContext]
    table: SymbolTable
    graph: CallGraph
    config: ReplintConfig
    #: per-file numpy alias sets keyed by path (for call normalisation)
    aliases: dict[str, frozenset[str]] = field(default_factory=dict)

    @classmethod
    def build(cls, files: "list[FileContext]", config: ReplintConfig) -> "ProjectContext":
        table = build_symbol_table([(f.path, f.source, f.tree) for f in files])
        graph = build_call_graph(table)
        return cls(
            files=files,
            table=table,
            graph=graph,
            config=config,
            aliases={f.path: f.numpy_aliases for f in files},
        )

    # -- shared lookups -------------------------------------------------------
    def module_for_path(self, path: str) -> "str | None":
        for mod in self.table.modules.values():
            if mod.path == path:
                return mod.name
        return None

    def norm_call_target(self, path: str, node: ast.Call) -> "str | None":
        """Dotted call target with this file's numpy aliases folded to ``np``."""
        name = dotted(node.func)
        if name is None:
            return None
        head, _, rest = name.partition(".")
        if head in self.aliases.get(path, frozenset({"numpy"})) or head == "numpy":
            return f"np.{rest}" if rest else "np"
        return name

    @cached_property
    def worker_roots(self) -> dict[str, str]:
        return worker_entry_points(self.table, self.graph, self.config)

    @cached_property
    def worker_reachable(self) -> dict[str, "tuple[str, ...]"]:
        return self.graph.reachable_from(set(self.worker_roots))

    # -- domain inference -----------------------------------------------------
    @cached_property
    def _annotations(self) -> dict[str, "tuple[str | None, dict[str, str]]"]:
        out = {}
        for qual, fn in self.table.functions.items():
            mod = self.table.modules.get(fn.module)
            out[qual] = _def_line_annotations(fn, mod.source if mod else "")
        return out

    @cached_property
    def return_domains(self) -> dict[str, "str | None"]:
        """Function qualname -> inferred return domain ("log"/"linear"/None)."""
        domains: dict[str, "str | None"] = {}
        # Seeds: annotation first, then the naming grammar on the simple name.
        for qual, fn in self.table.functions.items():
            ann, _ = self._annotations[qual]
            domains[qual] = ann or _name_domain(fn.node.name)
        # Fixpoint over return expressions for the still-unknown functions.
        for _ in range(_MAX_ROUNDS):
            changed = False
            for qual, fn in self.table.functions.items():
                if domains[qual] is not None:
                    continue
                inferred = self._infer_return_domain(fn, domains)
                if inferred is not None:
                    domains[qual] = inferred
                    changed = True
            if not changed:
                break
        return domains

    def _infer_return_domain(
        self, fn: FunctionInfo, domains: dict[str, "str | None"]
    ) -> "str | None":
        seen: set[str] = set()
        for node in ast.walk(fn.node):
            if not (isinstance(node, ast.Return) and node.value is not None):
                continue
            d = self.expr_domain(node.value, fn.path, fn.module, domains)
            if d is not None:
                seen.add(d)
        if len(seen) == 1:
            return next(iter(seen))
        return None  # unknown, or conflicting returns — stay silent

    def param_domain(self, qual: str, param: str) -> "str | None":
        """Domain of one parameter: seed annotation, else naming grammar."""
        _, params = self._annotations.get(qual, (None, {}))
        if param in params:
            return params[param]
        return _name_domain(param)

    def expr_domain(
        self,
        node: ast.expr,
        path: str,
        module: "str | None" = None,
        domains: "dict[str, str | None] | None" = None,
    ) -> "str | None":
        """Like the per-file ``expr_domain`` but call-aware.

        A call to ``np.log``/``np.exp`` is classified directly; a call
        resolved through the symbol table inherits its callee's return
        domain; names fall back to the vocabulary.
        """
        if isinstance(node, ast.Subscript):
            return self.expr_domain(node.value, path, module, domains)
        if isinstance(node, ast.Call):
            target = self.norm_call_target(path, node)
            if target in _LOG_FUNCS:
                return "log"
            if target in _EXP_FUNCS:
                return "linear"
            fn = self.resolve_call(path, node, module)
            if fn is not None:
                d = (domains or self.return_domains).get(fn.qualname)
                return d
            return None
        if isinstance(node, ast.Attribute):
            return _name_domain(node.attr)
        if isinstance(node, ast.Name):
            return _name_domain(node.id)
        return None

    def resolve_call(
        self, path: str, node: ast.Call, module: "str | None" = None
    ) -> "FunctionInfo | None":
        module = module or self.module_for_path(path)
        if module is None:
            return None
        name = dotted(node.func)
        if name is None:
            return None
        return self.table.resolve_function(module, name)
