"""Finding record and the two output renderers (text and SARIF)."""

from __future__ import annotations

import json
from dataclasses import dataclass


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at a source location.

    Sort order is (path, line, col, rule_id) so reports are stable across
    filesystem walk order.
    """

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule_id} [{self.rule_name}] {self.message}"


def render_text(findings: list[Finding]) -> str:
    """One line per finding plus a trailing summary line."""
    lines = [f.text() for f in findings]
    n_files = len({f.path for f in findings})
    if findings:
        lines.append(f"{len(findings)} finding(s) in {n_files} file(s)")
    return "\n".join(lines)


def render_sarif(findings: list[Finding], version: str) -> str:
    """SARIF 2.1.0 document for GitHub code-scanning upload.

    One run, one driver (``replint``), rule metadata drawn from the rule
    registry's docstrings so code-scanning annotations link to the same
    catalogue ``--list-rules`` prints.
    """
    # Local import: replint.rules.base imports Finding from this module, so
    # a module-level import here would be circular.
    from replint.rules import ALL_RULES

    described = [
        (r.rule_id, r.rule_name, (type(r).__doc__ or r.rule_name).strip().splitlines()[0])
        for r in ALL_RULES
    ] + [
        ("RPL000", "parse-error", "File could not be read or parsed."),
        ("RPL900", "unused-suppression", "Suppression comment matched no finding."),
    ]
    catalogue = [
        {
            "id": rid,
            "name": name,
            "shortDescription": {"text": text},
            "defaultConfiguration": {"level": "warning"},
        }
        for rid, name, text in sorted(described)
    ]
    results = [
        {
            "ruleId": f.rule_id,
            "level": "warning",
            "message": {"text": f"[{f.rule_name}] {f.message}"},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path},
                        "region": {
                            "startLine": f.line,
                            "startColumn": f.col + 1,
                        },
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": "https://json.schemastore.org/sarif-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "replint",
                        "version": version,
                        "rules": catalogue,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True)
