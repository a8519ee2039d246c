"""Exception-boundary policy (RPL401).

The library's contract is that intentional failures surface as
:class:`repro.errors.ReproError` subclasses, so callers catch exactly one
type at API boundaries.  A bare ``except:`` or ``except Exception`` inside
library code swallows programming errors (AttributeError from a typo,
KeyboardInterrupt-adjacent cleanup bugs) and converts them into silent bad
data — in a numerical pipeline that is the worst possible failure mode.
Process/RPC boundaries that genuinely must catch everything carry a
per-line suppression with the justification beside it — there is no
module-wide exemption.
"""

from __future__ import annotations

import ast
from typing import Iterator

from replint.findings import Finding
from replint.rules.base import FileContext

_BROAD = frozenset({"Exception", "BaseException"})


def _broad_name(node: "ast.expr | None") -> "str | None":
    """The broad class caught by this except clause, if any."""
    if node is None:
        return "<bare>"
    if isinstance(node, ast.Name) and node.id in _BROAD:
        return node.id
    if isinstance(node, ast.Tuple):
        for elt in node.elts:
            if isinstance(elt, ast.Name) and elt.id in _BROAD:
                return elt.id
    return None


class BroadExceptRule:
    """RPL401: bare ``except:`` / ``except Exception``.

    Catch the narrowest concrete exception set the block can actually
    produce, or a :class:`repro.errors.ReproError` subclass at API
    boundaries.
    """

    rule_id = "RPL401"
    rule_name = "broad-except"

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            broad = _broad_name(node.type)
            if broad is None:
                continue
            what = "bare except" if broad == "<bare>" else f"except {broad}"
            yield Finding(
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                rule_id=self.rule_id,
                rule_name=self.rule_name,
                message=(
                    f"{what} — catch the specific exceptions this block can "
                    "raise (broad catches silently corrupt numerical results)"
                ),
            )
