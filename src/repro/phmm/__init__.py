"""Pair-Hidden-Markov-Model core: the paper's primary contribution.

``model``             :class:`PHMMParams` — transition/emission parameterisation.
``pwm``               Position-weight matrices from read qualities.
``forward_backward``  Emissions and the one kernel pair: lane-major, scaled
                      forward/backward passes (:class:`LaneTile`), the
                      posterior deposit fused into the backward one; an
                      optional band restricts each row.  Whole-batch
                      drivers keep every row (tests, ledger replay).
``lanes``             Builds and loads the one C source, ``_lanes.c``:
                      those passes, the accumulators' update cycles and
                      the seeder's q-gram count and key search (needs
                      ``cc``; no fallback).
``banded``            Band geometry (:class:`BandSpec`).
``posterior``         What the posterior deposit means; the z vectors;
                      the whole-batch posterior driver.
``alignment``         High-level API: align a batch of (read, window) pairs.
``scoring``           Mapping-score normalisation across candidate locations.
``viterbi``           Max-product single-best alignment (ablation and SAM).
``sanitize``          Opt-in runtime checks of the numerical invariants.

Import from the submodules; the package root exports nothing.  The test
oracles live beside the tests (``tests/phmm/``).
"""
