"""PHMM parameterisation.

Three hidden states — match ``M`` and gap states ``G_X`` (read base against a
gap) / ``G_Y`` (genome base against a gap) — with the transition structure of
Fig. 2 of the paper:

* ``T_MM`` stay in match,
* ``T_MG`` open a gap (same probability for both gap states, as in the paper),
* ``T_GM`` close a gap,
* ``T_GG`` extend a gap.

Match emissions are the conditional table ``p[k, y]`` = P(read base k | genome
base y); gap emissions are the flat ``q``.  The genome alphabet includes
``N`` (column 4), which emits uniformly — candidate windows are padded with N
at genome edges and the uniform column keeps those cells neutral.

Note on the paper's forward recursion: the printed ``f_M`` update mixes
``T_MG`` with gap-state predecessors at ``(i-1,j)``/``(i,j-1)``, which is
inconsistent with its own backward recursion and with Durbin et al. (1998,
ch. 4), the paper's cited source.  We implement the Durbin recursion (see
DESIGN.md §2); the backward recursion matches the paper verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import ModelError


def default_emission(match: float = 0.97) -> np.ndarray:
    """Build the 4x5 ``p[k, y]`` table from a single match probability.

    Columns are genome bases A, C, G, T, N.  Each ACGT column is a proper
    conditional distribution over read bases (``match`` on the diagonal, the
    remainder split over the three mismatches); the N column is uniform 0.25.
    """
    if not 0.25 < match < 1.0:
        raise ModelError(f"match emission must be in (0.25, 1), got {match}")
    mismatch = (1.0 - match) / 3.0
    table = np.full((4, 5), mismatch)
    np.fill_diagonal(table[:, :4], match)
    table[:, 4] = 0.25
    return table


@dataclass(frozen=True)
class PHMMParams:
    """Immutable PHMM parameter set.

    Attributes
    ----------
    gap_open:
        ``T_MG`` — probability of moving from M into either gap state.
    gap_extend:
        ``T_GG`` — probability of staying in a gap state.
    q:
        Gap-state emission probability (flat, 0.25 by default).
    emission:
        4x5 match-emission table ``p[k, y]`` (read base x genome base incl N);
        defaults to :func:`default_emission`.
    """

    gap_open: float = 0.025
    gap_extend: float = 0.3
    q: float = 0.25
    emission: np.ndarray = field(default_factory=default_emission)

    def __post_init__(self) -> None:
        if not 0.0 < self.gap_open < 0.5:
            raise ModelError(f"gap_open must be in (0, 0.5), got {self.gap_open}")
        if not 0.0 < self.gap_extend < 1.0:
            raise ModelError(
                f"gap_extend must be in (0, 1), got {self.gap_extend}"
            )
        if not 0.0 < self.q <= 1.0:
            raise ModelError(f"q must be in (0, 1], got {self.q}")
        emission = np.asarray(self.emission, dtype=np.float64)
        if emission.shape != (4, 5):
            raise ModelError(
                f"emission table must be 4x5 (read base x ACGTN), got "
                f"{emission.shape}"
            )
        if (emission < 0).any() or (emission > 1).any():
            raise ModelError("emission probabilities must lie in [0, 1]")
        col_sums = emission[:, :4].sum(axis=0)
        if not np.allclose(col_sums, 1.0, atol=1e-6):
            raise ModelError(
                "each ACGT emission column must sum to 1 "
                f"(got {col_sums.round(6)})"
            )
        object.__setattr__(self, "emission", emission)

    # Transition accessors (names follow the paper).
    @property
    def T_MM(self) -> float:
        """M -> M: ``1 - 2 * gap_open``."""
        return 1.0 - 2.0 * self.gap_open

    @property
    def T_MG(self) -> float:
        """M -> G_X and M -> G_Y."""
        return self.gap_open

    @property
    def T_GG(self) -> float:
        """G -> same G."""
        return self.gap_extend

    @property
    def T_GM(self) -> float:
        """G -> M: ``1 - gap_extend``."""
        return 1.0 - self.gap_extend
