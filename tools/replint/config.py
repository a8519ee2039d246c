"""Configuration: defaults plus the ``[tool.replint]`` table of pyproject.toml.

All path-classifying options are fnmatch glob lists applied to POSIX-style
relative paths (``*`` crosses directory separators, so ``*/parallel/*.py``
matches ``src/repro/parallel/shm.py``).
"""

from __future__ import annotations

import fnmatch
import tomllib
from dataclasses import dataclass, field, fields
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
    rng_sanctioned:
        Modules allowed to touch ``np.random`` directly (the RNG plumbing
        itself); RPL201 skips them.
    exclude:
        Paths never linted.
    select:
        Rule-ID allowlist; empty means every registered rule runs.
    metric_prefixes:
        The ``subsystem`` vocabulary of the ``subsystem.metric`` naming
        grammar; RPL601 flags metric/trace names outside it.
    """

    worker_modules: list[str] = field(
        default_factory=lambda: ["*/pipeline/mp_backend.py", "*/parallel/*.py"]
    )
    rng_sanctioned: list[str] = field(default_factory=lambda: ["*/util/rng.py"])
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

    def is_worker_module(self, path: str) -> bool:
        return _match_any(path, self.worker_modules)

    def is_rng_sanctioned(self, path: str) -> bool:
        return _match_any(path, self.rng_sanctioned)

    def is_excluded(self, path: str) -> bool:
        return _match_any(path, self.exclude)

    def rule_selected(self, rule_id: str) -> bool:
        return not self.select or rule_id in self.select


_LIST_KEYS = tuple(f.name for f in fields(ReplintConfig))


def load_config(pyproject: "Path | str | None" = None) -> ReplintConfig:
    """Build a config from ``[tool.replint]``; defaults when absent.

    ``pyproject`` may point at an explicit TOML file; by default
    ``pyproject.toml`` in the current directory is used when present.
    Unknown keys are rejected so typos (and keys of rules since deleted)
    fail loudly in CI.
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
