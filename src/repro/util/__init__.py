"""Shared utilities: deterministic RNG plumbing, tables."""

from repro.util.rng import resolve_rng, spawn_child
from repro.util.tables import format_table

__all__ = [
    "resolve_rng",
    "spawn_child",
    "format_table",
]
