"""Evaluation: truth-set comparison and statistical-calibration diagnostics."""

from repro.evaluation.calibration import alpha_sweep, is_conservative, qq_points
from repro.evaluation.metrics import ConfusionCounts, compare_to_truth, roc_sweep
from repro.evaluation.report import run_report

__all__ = [
    "ConfusionCounts",
    "compare_to_truth",
    "roc_sweep",
    "alpha_sweep",
    "qq_points",
    "is_conservative",
    "run_report",
]
