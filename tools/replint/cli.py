"""Command-line front end: ``python -m replint [paths...]``.

Exit codes: 0 clean, 1 findings reported, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys
import textwrap

from replint import __version__
from replint.config import load_config
from replint.engine import iter_python_files, lint_paths
from replint.findings import render_sarif, render_text
from replint.rules import ALL_RULES, KNOWN_RULE_IDS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replint",
        description="repro's domain-specific static analyser "
        "(numerical-domain, RNG, multiprocessing, exception and metric-name "
        "hygiene; every rule sees one file)",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories to lint (default: src)")
    parser.add_argument("--format", choices=["text", "sarif"],
                        default="text",
                        help="output format (default: text; sarif for "
                        "GitHub code-scanning upload)")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule IDs to run (default: all)")
    parser.add_argument("--config", default=None, metavar="PYPROJECT",
                        help="pyproject.toml to read [tool.replint] from")
    parser.add_argument("--audit-suppressions", action="store_true",
                        help="also report suppression comments that matched "
                        "no finding (RPL900)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalogue and exit")
    parser.add_argument("--version", action="version",
                        version=f"replint {__version__}")
    return parser


def list_rules() -> str:
    """Human-readable rule catalogue from the registry docstrings."""
    blocks = []
    for rule in ALL_RULES:
        doc = textwrap.dedent(type(rule).__doc__ or "").strip()
        blocks.append(
            f"{rule.rule_id} [{rule.rule_name}]\n{textwrap.indent(doc, '    ')}"
        )
    return "\n\n".join(blocks)


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(list_rules())
        return 0

    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"replint: configuration error: {exc}", file=sys.stderr)
        return 2

    if args.select:
        ids = [part.strip() for part in args.select.split(",") if part.strip()]
        unknown = [i for i in ids if i not in KNOWN_RULE_IDS]
        if unknown:
            print(f"replint: unknown rule id(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        config = type(config)(**{**vars(config), "select": ids})

    if not iter_python_files(args.paths):
        print(f"replint: no Python files under {args.paths}", file=sys.stderr)
        return 2

    findings = lint_paths(args.paths, config, audit=args.audit_suppressions)
    if args.format == "sarif":
        print(render_sarif(findings, __version__))
    elif findings:
        print(render_text(findings))
    return 1 if findings else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
