"""Evaluation: truth-set comparison, ROC sweeps and the run report."""

from repro.evaluation.metrics import ConfusionCounts, compare_to_truth, roc_sweep
from repro.evaluation.report import run_report

__all__ = [
    "ConfusionCounts",
    "compare_to_truth",
    "roc_sweep",
    "run_report",
]
