"""Markdown run reports: one human-readable page per pipeline run.

A downstream user's first question after a run is "what happened?" —
mapping rates, stage timing, coverage shape, the calls themselves, and (in
validation settings) accuracy against a truth set.  :func:`run_report`
renders all of it as markdown from a :class:`CallResult`, so `repro`
runs document themselves.
"""

from __future__ import annotations

import numpy as np

from typing import TYPE_CHECKING

from repro.evaluation.metrics import compare_to_truth
from repro.genome.variants import VariantCatalog
from repro.observability.export import format_span_tree

if TYPE_CHECKING:  # pragma: no cover - annotation-only imports
    from repro.genome.reference import Reference
    from repro.pipeline.gnumap import CallResult

#: SNP table rows rendered before the rest are summarised as "(N more)".
MAX_SNP_ROWS = 50


def _coverage_histogram(depth: np.ndarray, n_bins: int = 10, width: int = 40) -> str:
    """Text histogram of per-position depth."""
    if depth.size == 0:
        return "(empty genome)"
    top = max(float(np.percentile(depth, 99.5)), 1.0)
    edges = np.linspace(0, top, n_bins + 1)
    counts, _ = np.histogram(np.clip(depth, 0, top - 1e-9), bins=edges)
    peak = counts.max() if counts.max() else 1
    lines = []
    for k in range(n_bins):
        bar = "#" * int(round(width * counts[k] / peak))
        lines.append(
            f"    {edges[k]:6.1f}-{edges[k + 1]:6.1f}x | {bar} {counts[k]}"
        )
    return "\n".join(lines)


def run_report(
    result: "CallResult",
    reference: "Reference",
    truth: "VariantCatalog | None" = None,
) -> str:
    """Render a pipeline run as a markdown document.

    ``result`` is a :class:`~repro.pipeline.gnumap.CallResult`;
    ``reference`` the :class:`~repro.genome.reference.Reference` it ran
    against; ``truth`` an optional catalog for accuracy scoring.
    """
    stats = result.stats
    depth = result.accumulator.total_depth()
    lines: list[str] = ["# GNUMAP-SNP run report", ""]

    lines += [
        "## Summary",
        "",
        f"- genome: `{reference.name}`, {len(reference):,} bp",
        f"- reads: {stats.n_reads:,} total, {stats.n_mapped:,} mapped "
        f"({stats.n_mapped / max(stats.n_reads, 1):.1%}), "
        f"{stats.n_unmapped:,} unmapped",
        f"- candidate alignments: {stats.n_pairs:,} "
        f"({stats.n_pairs / max(stats.n_mapped, 1):.2f} per mapped read)",
        f"- mean depth: {depth.mean():.1f}x (median {np.median(depth):.1f}x, "
        f"max {depth.max():.1f}x)",
        f"- SNP calls: {len(result.snps)}",
        "",
    ]

    spans = result.metrics.spans
    if spans:
        # The span tree as `-v` prints it: layers nest under their stage,
        # so the total is the top-level spans'.
        total = result.metrics.total_span_seconds()
        lines += ["## Stage timing", "", "```", *format_span_tree(spans), "```",
                  f"total: {total:.2f} s", ""]

    lines += ["## Coverage", "", "```", _coverage_histogram(depth), "```", ""]

    lines += ["## SNP calls", ""]
    if result.snps:
        lines += [
            "| pos | ref | alt | depth | stat | p-value |",
            "|---|---|---|---|---|---|",
        ]
        for snp in result.snps[:MAX_SNP_ROWS]:
            lines.append(
                f"| {snp.pos} | {snp.ref_name} | {snp.alt_name} | "
                f"{snp.call.depth:.1f} | {snp.call.stat:.1f} | "
                f"{snp.call.pvalue:.2e} |"
            )
        if len(result.snps) > MAX_SNP_ROWS:
            lines.append(f"| ... | | | | | ({len(result.snps) - MAX_SNP_ROWS} more) |")
    else:
        lines.append("No SNPs called.")
    lines.append("")

    if truth is not None:
        counts = compare_to_truth(result.snps, truth)
        lines += [
            "## Accuracy vs truth",
            "",
            f"- planted variants: {len(truth)}",
            f"- TP {counts.tp} | FP {counts.fp} | FN {counts.fn}",
            f"- precision {counts.precision:.1%} | recall {counts.recall:.1%} "
            f"| F1 {counts.f1:.3f}",
            "",
        ]
    return "\n".join(lines)
