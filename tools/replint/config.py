"""Configuration: defaults plus the ``[tool.replint]`` table of pyproject.toml.

All path-classifying options are fnmatch glob lists applied to POSIX-style
relative paths (``*`` crosses directory separators, so ``*/phmm/*.py``
matches ``src/repro/phmm/posterior.py``).
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field
from pathlib import Path


def _match_any(path: str, patterns: list[str]) -> bool:
    return any(fnmatch.fnmatch(path, pat) for pat in patterns)


@dataclass(frozen=True)
class ReplintConfig:
    """Resolved linter configuration.

    Attributes
    ----------
    worker_modules:
        Modules whose functions may be dispatched to multiprocessing
        workers; RPL301 (worker shared state) applies only here.
    kernel_modules:
        Numerical kernel modules; RPL501 (errstate guards) applies only here.
    rng_sanctioned:
        Modules allowed to touch ``np.random`` directly (the RNG plumbing
        itself); RPL201 skips them.
    boundary_modules:
        Modules sanctioned to catch broad exceptions (process boundaries);
        RPL401 skips them.
    exclude:
        Paths never linted.
    select:
        Rule-ID allowlist; empty means every registered rule runs.
    metric_prefixes:
        The ``subsystem`` vocabulary of the ``subsystem.metric`` naming
        grammar; RPL601 flags metric/trace names outside it.
    worker_entrypoints:
        Extra worker-root qualname globs (``pkg.mod.func``) for the RPL801
        reachability pass, beyond the roots auto-discovered at dispatch
        call sites.
    dispatch_targets:
        Final call-target segments treated as multiprocessing dispatch
        constructs; functions passed by name into them become worker roots
        (RPL801) and their callable arguments are checked for fork-unsafe
        captures (RPL802).
    """

    worker_modules: list[str] = field(
        default_factory=lambda: ["*/pipeline/mp_backend.py", "*/parallel/*.py"]
    )
    kernel_modules: list[str] = field(default_factory=lambda: ["*/phmm/*.py"])
    rng_sanctioned: list[str] = field(default_factory=lambda: ["*/util/rng.py"])
    boundary_modules: list[str] = field(default_factory=lambda: [])
    exclude: list[str] = field(default_factory=lambda: [])
    select: list[str] = field(default_factory=lambda: [])
    metric_prefixes: list[str] = field(
        default_factory=lambda: [
            "bench",
            "caller",
            "cluster",
            "index",
            "io",
            "memory",
            "mp",
            "obs",
            "phmm",
            "pipeline",
            "seed",
        ]
    )
    worker_entrypoints: list[str] = field(default_factory=lambda: [])
    dispatch_targets: list[str] = field(
        default_factory=lambda: ["ChunkDispatcher", "Pool", "Process"]
    )

    def is_worker_module(self, path: str) -> bool:
        return _match_any(path, self.worker_modules)

    def is_kernel_module(self, path: str) -> bool:
        return _match_any(path, self.kernel_modules)

    def is_rng_sanctioned(self, path: str) -> bool:
        return _match_any(path, self.rng_sanctioned)

    def is_boundary_module(self, path: str) -> bool:
        return _match_any(path, self.boundary_modules)

    def is_excluded(self, path: str) -> bool:
        return _match_any(path, self.exclude)

    def rule_selected(self, rule_id: str) -> bool:
        return not self.select or rule_id in self.select


_LIST_KEYS = (
    "worker_modules",
    "kernel_modules",
    "rng_sanctioned",
    "boundary_modules",
    "exclude",
    "select",
    "metric_prefixes",
    "worker_entrypoints",
    "dispatch_targets",
)


def load_config(pyproject: "Path | str | None" = None) -> ReplintConfig:
    """Build a config from ``[tool.replint]``; defaults when absent.

    ``pyproject`` may point at an explicit TOML file; by default
    ``pyproject.toml`` in the current directory is used when present.
    Unknown keys are rejected so typos fail loudly in CI.
    """
    path = Path(pyproject) if pyproject is not None else Path("pyproject.toml")
    if not path.is_file():
        return ReplintConfig()
    with path.open("rb") as fh:
        doc = tomllib.load(fh)
    table = doc.get("tool", {}).get("replint", {})
    if not isinstance(table, dict):
        raise ValueError("[tool.replint] must be a table")
    kwargs: dict[str, list[str]] = {}
    for key, value in table.items():
        norm = key.replace("-", "_")
        if norm not in _LIST_KEYS:
            raise ValueError(f"unknown [tool.replint] key: {key!r}")
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"[tool.replint] {key} must be a list of strings")
        kwargs[norm] = value
    return ReplintConfig(**kwargs)
