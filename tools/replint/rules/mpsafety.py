"""``SharedMemory`` handle ownership (RPL803).

A ``multiprocessing.shared_memory.SharedMemory`` handle whose
``close()``/``unlink()`` is not tied to an owning scope — not used as a
context manager, not closed in the creating function, not returned and not
stored on an owning object — leaks its segment past the process: it
accumulates under ``/dev/shm`` until reboot.  ``repro.parallel.shm`` is the
one module that creates segments; every handle there is owned.
"""

from __future__ import annotations

import ast
from typing import Iterator

from replint.findings import Finding
from replint.rules.base import FileContext, dotted_name


def _returned_names(value: ast.expr) -> Iterator[str]:
    """Names returned by value (directly or inside a tuple/list display)."""
    if isinstance(value, ast.Name):
        yield value.id
    elif isinstance(value, (ast.Tuple, ast.List)):
        for elt in value.elts:
            yield from _returned_names(elt)


def _with_contexts(func: ast.AST) -> "set[int]":
    """ids of Call nodes used directly as ``with`` context expressions."""
    out: set[int] = set()
    for node in ast.walk(func):
        if not isinstance(node, ast.With):
            continue
        for item in node.items:
            expr = item.context_expr
            out.add(id(expr))
            # contextlib.closing(SharedMemory(...)) and friends
            if isinstance(expr, ast.Call):
                for arg in expr.args:
                    out.add(id(arg))
    return out


class SharedMemoryScopeRule:
    """RPL803: ``SharedMemory`` handle not tied to an owning scope.

    The creating scope must either use the handle as a context manager,
    call ``.close()``/``.unlink()`` on it, return it, or store it on an
    owning object (``self.attr = shm``) — otherwise the segment leaks past
    the process.
    """

    rule_id = "RPL803"
    rule_name = "unscoped-shared-memory"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        shm_names = self._shared_memory_names(ctx)
        if not shm_names:
            return
        scopes: list[ast.AST] = [ctx.tree] + [
            n
            for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        seen: set[int] = set()
        for scope in scopes:
            yield from self._check_scope(scope, ctx, shm_names, seen)

    def _shared_memory_names(self, ctx: FileContext) -> frozenset[str]:
        """Spellings of the SharedMemory constructor visible in this file."""
        names = {"multiprocessing.shared_memory.SharedMemory"}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "multiprocessing.shared_memory":
                        base = alias.asname or "multiprocessing.shared_memory"
                        names.add(f"{base}.SharedMemory")
            elif isinstance(node, ast.ImportFrom):
                if node.module == "multiprocessing" and node.level == 0:
                    for alias in node.names:
                        if alias.name == "shared_memory":
                            names.add(f"{alias.asname or 'shared_memory'}.SharedMemory")
                elif node.module == "multiprocessing.shared_memory" and node.level == 0:
                    for alias in node.names:
                        if alias.name == "SharedMemory":
                            names.add(alias.asname or "SharedMemory")
        return frozenset(names)

    def _check_scope(
        self,
        scope: ast.AST,
        ctx: FileContext,
        shm_names: frozenset[str],
        seen: set[int],
    ) -> Iterator[Finding]:
        # Statements belonging to *nested* defs are handled by their own
        # scope pass; collect this scope's direct statements only.
        own_nodes = list(self._own_walk(scope))
        with_ok = _with_contexts(scope)
        closed: set[str] = set()
        returned: set[str] = set()
        owned: set[str] = set()
        for node in own_nodes:
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("close", "unlink") and isinstance(
                    node.func.value, ast.Name
                ):
                    closed.add(node.func.value.id)
            elif isinstance(node, ast.Return) and node.value is not None:
                # Only the handle itself (or a container of it) transfers
                # ownership; ``return shm.name`` still leaks the segment.
                returned.update(_returned_names(node.value))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Attribute) and isinstance(
                        node.value, ast.Name
                    ):
                        owned.add(node.value.id)
        for node in own_nodes:
            if not (isinstance(node, ast.Call) and id(node) not in seen):
                continue
            name = dotted_name(node.func)
            if name not in shm_names:
                continue
            seen.add(id(node))
            if id(node) in with_ok:
                continue
            bound = self._binding_of(node, own_nodes)
            if bound == "__owned__":
                continue
            if bound is not None and (
                bound in closed or bound in returned or bound in owned
            ):
                continue
            held = f"bound to {bound!r} " if bound else ""
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                rule_name=self.rule_name,
                message=(
                    f"SharedMemory handle {held}has no owning scope — use "
                    "it as a context manager, close/unlink it in this "
                    "scope, return it, or store it on an owning object so "
                    "the segment cannot leak"
                ),
            )

    def _own_walk(self, scope: ast.AST) -> Iterator[ast.AST]:
        """Walk a scope without descending into the function defs inside it."""
        stack: list[ast.AST] = [scope]
        while stack:
            for child in ast.iter_child_nodes(stack.pop()):
                if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield child
                    stack.append(child)

    def _binding_of(self, call: ast.Call, nodes: list[ast.AST]) -> "str | None":
        """Name the handle is bound to; ``"__owned__"`` for self.attr = ...."""
        for node in nodes:
            if isinstance(node, ast.Assign) and node.value is call:
                target = node.targets[0]
                if isinstance(target, ast.Name):
                    return target.id
                if isinstance(target, ast.Attribute):
                    return "__owned__"
            if isinstance(node, ast.AnnAssign) and node.value is call:
                if isinstance(node.target, ast.Name):
                    return node.target.id
                if isinstance(node.target, ast.Attribute):
                    return "__owned__"
        return None
