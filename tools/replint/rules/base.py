"""Rule protocol and shared AST helpers.

Every rule is a class with ``rule_id``, ``rule_name``, a docstring (the
catalogue entry rendered by ``--list-rules``) and a ``check`` method taking a
:class:`FileContext`.  Helpers here answer the questions several rules share:
what dotted name does this call target, which local aliases mean ``numpy``,
and does an identifier look log-domain or linear/probability-domain.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from typing import Iterator, Protocol

from replint.config import ReplintConfig
from replint.findings import Finding


@dataclass(frozen=True)
class FileContext:
    """Everything a rule may inspect about one file."""

    path: str  # POSIX-style, as reported in findings
    tree: ast.Module
    config: ReplintConfig
    numpy_aliases: frozenset[str]  # names bound to the numpy module


class Rule(Protocol):
    """Structural protocol every lint rule satisfies."""

    rule_id: str
    rule_name: str

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        """Yield findings for one parsed file."""
        ...  # pragma: no cover - protocol body


def numpy_aliases(tree: ast.Module) -> frozenset[str]:
    """Local names that refer to the numpy module (``np`` by convention)."""
    names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    names.add(alias.asname or "numpy")
    return frozenset(names)


def dotted_name(node: ast.expr) -> "str | None":
    """``a.b.c`` for a Name/Attribute chain, else None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def call_target(node: ast.Call, ctx: FileContext) -> "str | None":
    """Normalised dotted target of a call, with numpy aliases folded to ``np``.

    ``numpy.log`` / ``np.log`` both normalise to ``np.log`` so rules match a
    single spelling.
    """
    name = dotted_name(node.func)
    if name is None:
        return None
    head, _, rest = name.partition(".")
    if head in ctx.numpy_aliases:
        return f"np.{rest}" if rest else "np"
    return name


def terminal_name(node: ast.expr) -> "str | None":
    """The identifying name of a value expression.

    ``loglik`` for ``Name(loglik)``, ``loglik`` for ``outcome.loglik``,
    ``log_scale`` for ``log_scale[:, i]``; None for calls, literals and
    anything else whose identity is not a single name.
    """
    if isinstance(node, ast.Subscript):
        return terminal_name(node.value)
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


_LOG_TOKENS = frozenset(
    {"ll", "lls", "lse", "logsumexp", "loglik", "logliks", "llr", "lods"}
)
_PROB_TOKENS = frozenset(
    {
        "p",
        "prob",
        "probs",
        "probability",
        "probabilities",
        "pstar",
        "weight",
        "weights",
        "posterior",
        "posteriors",
        "mass",
        "masses",
        "likelihood",
        "likelihoods",
    }
)
_TOKEN_RE = re.compile(r"[^0-9a-z]+")


def _tokens(name: str) -> list[str]:
    return [t for t in _TOKEN_RE.split(name.lower()) if t]


def looks_log_domain(name: "str | None") -> bool:
    """Heuristic: does this identifier denote a log-space quantity?"""
    if not name:
        return False
    toks = _tokens(name)
    return any(t in _LOG_TOKENS or t.startswith("log") for t in toks)


def looks_prob_domain(name: "str | None") -> bool:
    """Heuristic: does this identifier denote a linear probability/weight?"""
    if not name:
        return False
    if looks_log_domain(name):
        return False
    return any(t in _PROB_TOKENS for t in _tokens(name))


def expr_domain(node: ast.expr, ctx: FileContext) -> "str | None":
    """Classify an expression as ``"log"``, ``"linear"`` or unknown (None).

    Only confidently classifiable shapes get a domain: ``np.log(...)`` /
    ``np.exp(...)`` results, and name-identified values whose identifier
    matches a domain vocabulary.  Everything else is None so mixed-domain
    checks stay conservative.
    """
    if isinstance(node, ast.Call):
        target = call_target(node, ctx)
        if target in ("np.log", "np.log2", "np.log10", "np.log1p", "math.log"):
            return "log"
        if target in ("np.exp", "np.expm1", "math.exp"):
            return "linear"
        return None
    name = terminal_name(node)
    if looks_log_domain(name):
        return "log"
    if looks_prob_domain(name):
        return "linear"
    return None


def walk_functions(tree: ast.Module) -> Iterator["ast.FunctionDef | ast.AsyncFunctionDef"]:
    """Every function definition in the module, at any nesting depth."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node
