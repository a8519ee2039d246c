"""Threshold-sweep (ROC) comparison: GNUMAP-SNP vs the MAQ-like baseline.

Table I compares the two callers at one operating point each; this extension
sweeps both callers' confidence scores — the LRT statistic for GNUMAP-SNP,
the phred-scaled consensus margin for MAQ — over a shared workload and
reports the full precision/recall trade-off.  The claim under test is the
abstract's "high sensitivity and high specificity": GNUMAP-SNP's curve
should dominate (or match) the baseline's across operating points, with the
statistical cutoff landing on a sensible spot of its own curve.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.maq import MaqConfig, MaqLikeCaller
from repro.errors import ConfigError
from repro.evaluation.metrics import roc_sweep
from repro.experiments.workload import Workload, build_workload
from repro.genome.alphabet import GAP, N
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp
from repro.util.tables import format_table


@dataclass
class RocPoint:
    """One operating point of one caller's sweep."""

    series: str
    threshold: float
    tp: int
    fp: int
    precision: float
    recall: float

    def as_list(self) -> list:
        return [
            self.series,
            round(self.threshold, 2),
            self.tp,
            self.fp,
            f"{self.precision:.1%}",
            f"{self.recall:.1%}",
        ]


def gnumap_scored_positions(
    wl: Workload, config: PipelineConfig | None = None
) -> "list[tuple[int, float]]":
    """Candidate (position, LRT statistic) pairs for non-reference calls.

    The statistics are the configured caller's own
    (:meth:`~repro.calling.caller.SNPCaller.base_calls`), so depth
    eligibility and ploidy follow ``config.caller``.  A candidate is a
    tested position whose winning channel is a base other than its non-N
    reference.  No significance cutoff is applied — the sweep supplies the
    thresholds.
    """
    pipe = GnumapSnp(wl.reference, config or PipelineConfig())
    acc = pipe.map_reads(wl.reads)
    ref = wl.reference.codes
    return [
        (call.pos, call.stat)
        for call in pipe.caller.base_calls(acc.snapshot())
        if call.top_channel != GAP
        and ref[call.pos] != N
        and call.top_channel != ref[call.pos]
    ]


def maq_scored_positions(
    wl: Workload, seed: int = 0
) -> "list[tuple[int, float]]":
    """Candidate (position, consensus quality) pairs from the baseline."""
    caller = MaqLikeCaller(
        wl.reference, MaqConfig(snp_quality_cutoff=0.0), seed=seed
    )
    return [(snp.pos, snp.quality) for snp in caller.run(wl.reads)]


def run(
    scale: str = "small",
    seed: int = 2012,
    workload: Workload | None = None,
    n_points: int = 6,
) -> list[RocPoint]:
    """Sweep both callers; returns ``n_points`` operating points per series."""
    if n_points < 2:
        raise ConfigError("need at least 2 operating points")
    wl = workload or build_workload(scale=scale, seed=seed)
    out: list[RocPoint] = []
    for series, scored in (
        ("GNUMAP-SNP (LRT stat)", gnumap_scored_positions(wl)),
        ("MAQ-like (consensus qual)", maq_scored_positions(wl, seed=seed)),
    ):
        if not scored:
            continue
        curve = roc_sweep(scored, wl.catalog)
        # pick evenly spaced operating points along the curve
        idx = np.unique(
            np.linspace(0, curve.shape[0] - 1, n_points).astype(int)
        )
        for i in idx:
            threshold, tp, fp, precision, recall = curve[i]
            out.append(
                RocPoint(
                    series=series,
                    threshold=float(threshold),
                    tp=int(tp),
                    fp=int(fp),
                    precision=float(precision),
                    recall=float(recall),
                )
            )
    return out


def format(points: "list[RocPoint]") -> str:
    return format_table(
        ["series", "threshold", "TP", "FP", "precision", "recall"],
        [p.as_list() for p in points],
        title="ROC extension - operating points per caller",
    )
