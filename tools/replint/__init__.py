"""replint — the repro repository's domain-specific static analyser.

An AST linter encoding the numerical and concurrency invariants this
codebase depends on: log-space vs. linear-space probability hygiene, seeded
RNG discipline, multiprocessing shared-state safety, exception-boundary
policy and ``np.errstate`` guards around kernel reductions.  Beyond the
per-file rules, *project passes* build a module symbol table and call graph
over the whole file set and run interprocedural dataflow: log/linear domain
taint across function boundaries (RPL101/102) and multiprocessing
shared-state safety from worker entry points outward (RPL8xx).

Run it as ``python -m replint src`` (with ``tools/`` on ``PYTHONPATH``), or
use the programmatic API::

    from replint import lint_paths
    findings = lint_paths(["src"])            # per-file + project passes
    findings = lint_paths(["src"], project=False)  # per-file rules only

Findings can be rendered as human-readable text, machine-readable JSON, or
SARIF 2.1.0 for code-scanning upload; individual lines opt out with
``# replint: disable=RPL101`` comments (audited for staleness with
``--audit-suppressions``).
"""

from __future__ import annotations

from replint.config import ReplintConfig, load_config
from replint.engine import lint_file, lint_files, lint_paths, lint_source
from replint.findings import Finding

__version__ = "2.0.0"

__all__ = [
    "Finding",
    "ReplintConfig",
    "lint_file",
    "lint_files",
    "lint_paths",
    "lint_source",
    "load_config",
    "__version__",
]
