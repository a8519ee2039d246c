"""Truth-set comparison metrics (the TP/FP/FN/precision columns of
Tables I and III) and ROC sweeps over the calling threshold."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from repro.errors import ReproError
from repro.genome.variants import VariantCatalog


@dataclass(frozen=True)
class ConfusionCounts:
    """Position-level confusion counts against a truth catalog."""

    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> float:
        """TP / (TP + FP); 0 when nothing was called."""
        total = self.tp + self.fp
        return self.tp / total if total else 0.0

    @property
    def recall(self) -> float:
        """TP / (TP + FN) — the paper's 'fraction of total SNPs called'."""
        total = self.tp + self.fn
        return self.tp / total if total else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if (p + r) else 0.0


def _called_positions(calls: Iterable) -> dict[int, object]:
    out: dict[int, object] = {}
    for c in calls:
        pos = getattr(c, "pos", None)
        if pos is None:
            raise ReproError(f"call record {c!r} has no .pos")
        out[int(pos)] = c
    return out


def compare_to_truth(
    calls: Iterable,
    truth: VariantCatalog,
    allele_aware: bool = False,
) -> ConfusionCounts:
    """Confusion counts for any call records carrying ``.pos``.

    With ``allele_aware`` a true positive additionally requires the called
    alternate to include the truth allele (records must then carry either
    ``alt_base`` (baselines) or a ``call.genotype`` (GNUMAP records)).
    """
    called = _called_positions(calls)
    tp = 0
    for variant in truth:
        rec = called.get(variant.pos)
        if rec is None:
            continue
        if allele_aware and not _allele_matches(rec, variant.alt):
            continue
        tp += 1
    fp = sum(1 for pos in called if pos not in truth)
    fn = len(truth) - tp
    return ConfusionCounts(tp=tp, fp=fp, fn=fn)


def _allele_matches(record: object, alt: int) -> bool:
    alt_base = getattr(record, "alt_base", None)
    if alt_base is not None:
        return int(alt_base) == alt
    call = getattr(record, "call", None)
    if call is not None:
        return alt in call.genotype
    raise ReproError(f"cannot extract alleles from record {record!r}")


def roc_sweep(
    scored_positions: "Sequence[tuple[int, float]]",
    truth: VariantCatalog,
    n_truth: int | None = None,
) -> np.ndarray:
    """ROC-style curve over a score threshold.

    ``scored_positions`` holds ``(pos, score)`` for every candidate call,
    higher score = more confident.  Returns an array of rows
    ``(threshold, tp, fp, precision, recall)`` as the threshold sweeps over
    every distinct score (descending): candidates tied on a score enter
    together, so each row is an operating point some threshold reaches.
    """
    if n_truth is None:
        n_truth = len(truth)
    if n_truth <= 0:
        raise ReproError("truth set must be non-empty for a ROC sweep")
    items = sorted(scored_positions, key=lambda x: -x[1])
    rows = []
    tp = fp = 0
    seen: set[int] = set()
    for i, (pos, score) in enumerate(items):
        if pos not in seen:
            seen.add(pos)
            if pos in truth:
                tp += 1
            else:
                fp += 1
        if i + 1 < len(items) and items[i + 1][1] == score:
            continue  # the rest of this score's candidates enter first
        if rows and tp + fp == rows[-1][1] + rows[-1][2]:
            continue  # only repeated positions: no new operating point
        precision = tp / (tp + fp)
        recall = tp / n_truth
        rows.append((score, tp, fp, precision, recall))
    return np.asarray(rows, dtype=np.float64)
