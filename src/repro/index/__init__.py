"""k-mer hash index: GNUMAP step 1 (candidate-region identification).

The genome is indexed by its k-mers (default k = 10, as in the paper); reads
query the index with their own k-mers and the hit diagonals are clustered
into candidate mapping regions for the Pair-HMM.
"""

from repro.index.hashindex import GenomeIndex
from repro.index.seeding import CandidateRegion, Seeder, SeederConfig

__all__ = [
    "GenomeIndex",
    "CandidateRegion",
    "Seeder",
    "SeederConfig",
]
