"""Rule registries.

Two catalogues: ``ALL_RULES`` are the per-file rules (one parsed file at a
time), ``PROJECT_RULES`` are the interprocedural passes that run once over
the whole file set with the symbol table and call graph
(:class:`replint.dataflow.ProjectContext`).  ``--list-rules`` renders both;
``KNOWN_RULE_IDS`` is every ID a finding can carry, including the engine's
own RPL000 (unreadable/unparsable file) and RPL900 (unused suppression,
audit mode).
"""

from __future__ import annotations

from replint.rules.base import FileContext, Rule
from replint.rules.domainflow import CrossCallDomainRule
from replint.rules.domains import DomainMixArithRule, LogDomainCallRule
from replint.rules.errstate import UnguardedReductionLogRule
from replint.rules.excepts import BroadExceptRule
from replint.rules.metricnames import MetricNameRule
from replint.rules.mpsafety import (
    ForkUnsafeCaptureRule,
    SharedMemoryScopeRule,
    WorkerGlobalMutationRule,
)
from replint.rules.rng import UnseededRngRule
from replint.rules.workers import WorkerSharedStateRule

ALL_RULES: tuple[Rule, ...] = (
    LogDomainCallRule(),
    DomainMixArithRule(),
    UnseededRngRule(),
    WorkerSharedStateRule(),
    BroadExceptRule(),
    UnguardedReductionLogRule(),
    MetricNameRule(),
    SharedMemoryScopeRule(),
)

#: Interprocedural passes over the project symbol table / call graph.
PROJECT_RULES = (
    CrossCallDomainRule(),
    WorkerGlobalMutationRule(),
    ForkUnsafeCaptureRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}

#: Every rule ID findings can carry (per-file, project, and engine-emitted).
KNOWN_RULE_IDS: frozenset[str] = frozenset(
    {rule.rule_id for rule in ALL_RULES}
    | {rid for rule in PROJECT_RULES for rid in rule.rule_ids}
    | {"RPL000", "RPL900"}
)

__all__ = [
    "ALL_RULES",
    "PROJECT_RULES",
    "RULES_BY_ID",
    "KNOWN_RULE_IDS",
    "FileContext",
    "Rule",
]
