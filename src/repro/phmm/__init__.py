"""Pair-Hidden-Markov-Model core: the paper's primary contribution.

``model``             :class:`PHMMParams` — transition/emission parameterisation.
``pwm``               Position-weight matrices from read qualities.
``forward_backward``  The one kernel pair: lane-major, scaled forward/backward
                      row sweeps; an optional band restricts each row.
``banded``            Band geometry (:class:`BandSpec`).
``posterior``         Marginal alignment posteriors and the z vectors.
``alignment``         High-level API: align a batch of (read, window) pairs.
``scoring``           Mapping-score normalisation across candidate locations.
``viterbi``           Max-product single-best alignment (ablation and SAM).
``sanitize``          Opt-in runtime checks of the numerical invariants.

Import from the submodules; the package root exports nothing.  The test
oracles live beside the tests (``tests/phmm/``).
"""
