"""Transition/transversion oracles: the check on the catalogue generator's
Ts/Tv ratio (``generate_snp_catalog(transition_bias=...)``)."""

from repro.genome.alphabet import A, G, N

PURINES = (A, G)


def is_transition(a, b):
    """True when ``a -> b`` is a transition (purine<->purine or pyr<->pyr).

    A base is not a transition of itself, and N is never one.
    """
    if a == b or N in (a, b):
        return False
    return (a in PURINES) == (b in PURINES)


def is_transversion(a, b):
    """True when ``a -> b`` swaps purine/pyrimidine class."""
    if a == b or N in (a, b):
        return False
    return not is_transition(a, b)


def transition_fraction(variants):
    """Fraction of ``variants`` that are transitions (0.0 for none)."""
    variants = list(variants)
    if not variants:
        return 0.0
    return sum(is_transition(v.ref, v.alt) for v in variants) / len(variants)
