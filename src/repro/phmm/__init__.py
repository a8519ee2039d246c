"""Pair-Hidden-Markov-Model core: the paper's primary contribution.

Layout
------
``model``
    :class:`PHMMParams` — transition/emission parameterisation.
``pwm``
    Position-weight matrices from read qualities (the paper's "probabilistic
    extension" that makes emissions quality-aware).
``forward_backward``
    Batched, row-vectorised, scaled forward/backward dynamic programmes —
    the one kernel pair; an optional band restricts each row's columns.
``banded``
    Band geometry (:class:`BandSpec`, a diagonal band around a candidate's
    seed diagonal) and the posterior band-edge audit that drives the
    adaptive unbanded escape hatch.
``reference_impl``
    Slow, loop-based log-space implementation used as the numerical oracle in
    tests (never in the pipeline).
``posterior``
    Marginal alignment posteriors and the per-genome-position nucleotide
    contribution vectors ``z``.
``viterbi``
    Max-product single-best alignment (baseline/ablation only).
``alignment``
    High-level API: align one read or a batch of (read, window) pairs.
``scoring``
    Posterior mapping-score normalisation across candidate locations
    (the GNUMAP multiread treatment).
"""

from repro.phmm.model import PHMMParams
from repro.phmm.pwm import pwm_from_read, reverse_complement_pwm
from repro.phmm.forward_backward import forward_batch, backward_batch
from repro.phmm.banded import BandSpec, band_edge_mass
from repro.phmm.posterior import PosteriorResult, posteriors_batch
from repro.phmm.alignment import (
    AlignmentOutcome,
    align_batch,
    align_batch_banded,
    align_read,
)
from repro.phmm.scoring import normalize_location_weights
from repro.phmm.training import FitResult, fit_transitions
from repro.phmm.viterbi import viterbi_align

__all__ = [
    "PHMMParams",
    "pwm_from_read",
    "reverse_complement_pwm",
    "forward_batch",
    "backward_batch",
    "BandSpec",
    "band_edge_mass",
    "PosteriorResult",
    "posteriors_batch",
    "AlignmentOutcome",
    "align_batch",
    "align_batch_banded",
    "align_read",
    "normalize_location_weights",
    "FitResult",
    "fit_transitions",
    "viterbi_align",
]
