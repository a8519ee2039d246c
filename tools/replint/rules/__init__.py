"""Rule registry.

``ALL_RULES`` are the per-file rules (one parsed file at a time);
``KNOWN_RULE_IDS`` is every ID a finding can carry, including the engine's
own RPL000 (unreadable/unparsable file) and RPL900 (unused suppression,
audit mode).  A rule stays here only while
``tests/analysis/test_replint_live.py`` can seed a one-line violation into
the real file it guards and see it fire.
"""

from __future__ import annotations

from replint.rules.base import FileContext, Rule
from replint.rules.domains import DomainMixArithRule, LogDomainCallRule
from replint.rules.excepts import BroadExceptRule
from replint.rules.metricnames import MetricNameRule
from replint.rules.mpsafety import SharedMemoryScopeRule
from replint.rules.rng import UnseededRngRule
from replint.rules.workers import WorkerSharedStateRule

ALL_RULES: tuple[Rule, ...] = (
    LogDomainCallRule(),
    DomainMixArithRule(),
    UnseededRngRule(),
    WorkerSharedStateRule(),
    BroadExceptRule(),
    MetricNameRule(),
    SharedMemoryScopeRule(),
)

RULES_BY_ID: dict[str, Rule] = {rule.rule_id: rule for rule in ALL_RULES}

#: Every rule ID findings can carry (per-file and engine-emitted).
KNOWN_RULE_IDS: frozenset[str] = frozenset(RULES_BY_ID) | {"RPL000", "RPL900"}

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "KNOWN_RULE_IDS",
    "FileContext",
    "Rule",
]
