"""One pass over one file: parse, run the rules, apply suppressions, audit.

Every rule sees one parsed file (:class:`~replint.rules.base.FileContext`);
nothing is shared between files, so linting a tree (:func:`lint_paths`) is
linting each of its files (:func:`lint_file`) and sorting the result.
Individual lines opt out with ``# replint: disable=RPLxxx`` comments;
``audit=True`` additionally reports suppressions that matched nothing
(RPL900).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path

from replint.config import ReplintConfig
from replint.findings import Finding
from replint.rules import ALL_RULES
from replint.rules.base import FileContext, numpy_aliases

_SUPPRESS_RE = re.compile(r"#\s*replint:\s*disable=([A-Za-z0-9_,\s]+)")


def parse_suppressions(source: str) -> dict[int, frozenset[str]]:
    """Line number -> suppressed rule IDs (``{"all"}`` suppresses every rule).

    Suppressions are comments of the form ``# replint: disable=RPL101`` (a
    comma-separated list, or the word ``all``) on the line the finding is
    reported at.  Tokenize-based so string literals containing the marker
    text are not misread as suppressions.
    """
    out: dict[int, frozenset[str]] = {}
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            match = _SUPPRESS_RE.search(tok.string)
            if not match:
                continue
            ids = frozenset(
                part.strip() for part in match.group(1).split(",") if part.strip()
            )
            line = tok.start[0]
            out[line] = out.get(line, frozenset()) | ids
    except tokenize.TokenError:
        pass  # unterminated source; the parse error is reported separately
    return out


def _error_finding(path: str, line: int, col: int, message: str) -> Finding:
    return Finding(
        path=path,
        line=line,
        col=col,
        rule_id="RPL000",
        rule_name="parse-error",
        message=message,
    )


def lint_source(
    source: str,
    path: str,
    config: "ReplintConfig | None" = None,
    *,
    audit: bool = False,
) -> list[Finding]:
    """Lint one file's source text.

    ``path`` is used for reporting and path-scoped configuration.  With
    ``audit`` every suppression ID on a line where no such finding was
    raised is itself reported (RPL900).
    """
    config = config or ReplintConfig()
    posix = Path(path).as_posix()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [
            _error_finding(
                posix, exc.lineno or 1, (exc.offset or 1) - 1,
                f"cannot parse file: {exc.msg}",
            )
        ]
    ctx = FileContext(
        path=posix,
        tree=tree,
        config=config,
        numpy_aliases=numpy_aliases(tree),
    )
    suppressions = parse_suppressions(source)
    used: set[tuple[int, str]] = set()
    findings: list[Finding] = []
    for rule in ALL_RULES:
        if not config.rule_selected(rule.rule_id):
            continue
        for finding in rule.check(ctx):
            ids = suppressions.get(finding.line, frozenset())
            hit = finding.rule_id if finding.rule_id in ids else "all"
            if hit in ids:
                used.add((finding.line, hit))
            else:
                findings.append(finding)
    if audit:
        findings.extend(
            Finding(
                path=posix,
                line=line,
                col=0,
                rule_id="RPL900",
                rule_name="unused-suppression",
                message=(
                    f"suppression {rid!r} on this line matched no "
                    "finding — remove it (stale suppressions hide "
                    "future regressions)"
                ),
            )
            for line, ids in suppressions.items()
            for rid in ids
            if (line, rid) not in used
        )
    return sorted(findings)


def lint_file(
    path: "Path | str",
    config: "ReplintConfig | None" = None,
    *,
    audit: bool = False,
) -> list[Finding]:
    """Lint one file from disk; an unreadable file is an RPL000 finding."""
    p = Path(path)
    try:
        source = p.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        return [_error_finding(p.as_posix(), 1, 0, f"cannot read file: {exc}")]
    return lint_source(source, str(p), config, audit=audit)


def iter_python_files(paths: "list[str] | list[Path]") -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    out: set[Path] = set()
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            out.update(p.rglob("*.py"))
        elif p.suffix == ".py" and p.is_file():
            out.add(p)
    return sorted(out)


def lint_paths(
    paths: "list[str] | list[Path]",
    config: "ReplintConfig | None" = None,
    *,
    audit: bool = False,
) -> list[Finding]:
    """Lint every non-excluded Python file under the given files/directories."""
    config = config or ReplintConfig()
    findings: list[Finding] = []
    for path in iter_python_files(paths):
        if not config.is_excluded(path.as_posix()):
            findings.extend(lint_file(path, config, audit=audit))
    return sorted(findings)
