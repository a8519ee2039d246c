"""Pair-Hidden-Markov-Model core: the paper's primary contribution.

``model``             :class:`PHMMParams` — transition/emission parameterisation.
``pwm``               Position-weight matrices from read qualities.
``forward_backward``  The one kernel pair: lane-major, scaled forward/backward
                      row sweeps; an optional band restricts each row.
``banded``            Band geometry (:class:`BandSpec`) and the band-edge audit.
``posterior``         Marginal alignment posteriors and the z vectors.
``alignment``         High-level API: align one read or a batch of pairs.
``scoring``           Mapping-score normalisation across candidate locations.
``training``          EM fit of the gap transitions.
``viterbi``           Max-product single-best alignment (baseline/ablation only).
``reference_impl``    Slow loop-based oracle for the tests (never in the pipeline).
``sanitize``          Opt-in runtime checks of the numerical invariants.
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
