"""Genome substrate: alphabets, sequence I/O, references, and variants.

This subpackage is the foundation everything else builds on.  Sequences are
stored as ``uint8`` code arrays (A=0, C=1, G=2, T=3, N=4) rather than Python
strings so the Pair-HMM and accumulator layers can index emission tables
directly.
"""

from repro.genome.alphabet import (
    A,
    C,
    G,
    T,
    N,
    GAP,
    BASES,
    CODE_TO_CHAR,
    decode,
    encode,
    is_valid_codes,
    reverse_complement,
    reverse_complement_string,
)
from repro.genome.reference import Reference
from repro.genome.fasta import read_fasta, write_fasta
from repro.genome.fastq import Read, read_fastq, write_fastq
from repro.genome.variants import (
    Variant,
    VariantCatalog,
    apply_variants,
    generate_snp_catalog,
)

__all__ = [
    "A",
    "C",
    "G",
    "T",
    "N",
    "GAP",
    "BASES",
    "CODE_TO_CHAR",
    "encode",
    "decode",
    "is_valid_codes",
    "reverse_complement",
    "reverse_complement_string",
    "Reference",
    "read_fasta",
    "write_fasta",
    "Read",
    "read_fastq",
    "write_fastq",
    "Variant",
    "VariantCatalog",
    "apply_variants",
    "generate_snp_catalog",
]
