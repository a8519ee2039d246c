"""replint — the repro repository's domain-specific static analyser.

An AST linter encoding the numerical and concurrency invariants this
codebase depends on: log-space vs. linear-space probability hygiene, seeded
RNG discipline, worker-module shared state, ``SharedMemory`` handle
ownership, exception-boundary policy and the metric naming grammar.  Every
rule sees one parsed file; contracts that span files or processes
(serial == pool bytes, picklable worker functions, kernel bits) are
enforced by tests that execute the code, not here.

Run it as ``python -m replint src`` (with ``tools/`` on ``PYTHONPATH``), or
use the programmatic API::

    from replint import lint_paths
    findings = lint_paths(["src"])

Findings can be rendered as human-readable text or SARIF 2.1.0 for
code-scanning upload; individual lines opt out with
``# replint: disable=RPL101`` comments (audited for staleness with
``--audit-suppressions``).
"""

from __future__ import annotations

from replint.config import ReplintConfig, load_config
from replint.engine import lint_file, lint_paths, lint_source
from replint.findings import Finding

__version__ = "3.0.0"

__all__ = [
    "Finding",
    "ReplintConfig",
    "lint_file",
    "lint_paths",
    "lint_source",
    "load_config",
    "__version__",
]
