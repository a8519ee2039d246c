"""FASTQ reads with Phred+33 qualities.

A :class:`Read` couples a code array with per-base Phred quality scores and
remembers (when simulated) its true origin, which the evaluation layer uses
to audit mapping accuracy.  Quality scores convert to per-base error
probabilities via ``p_err = 10**(-Q/10)``; the PWM layer turns those into the
4-column probability matrices the Pair-HMM consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from repro.errors import FastqError, SequenceError
from repro.genome.alphabet import decode, encode

#: Sanger/Illumina-1.8 Phred offset.
PHRED_OFFSET = 33
#: Highest quality we emit / accept (Q41, Illumina ceiling).
MAX_QUALITY = 41
#: ``10**(-Q/10)`` by ``uint8`` Phred score: one value per score however
#: many reads are converted at once.
ERROR_PROBABILITY = np.power(10.0, -np.arange(256, dtype=np.float64) / 10.0)


@dataclass
class Read:
    """One sequencing read.

    Attributes
    ----------
    name:
        Read identifier (no whitespace).
    codes:
        ``uint8`` base codes, length N.
    quals:
        ``uint8`` Phred scores, length N, each in ``[0, MAX_QUALITY]``.
    true_pos:
        0-based genome position of the read's first base when the read was
        simulated, else ``None``.  Evaluation-only metadata.
    true_strand:
        ``+1`` forward / ``-1`` reverse when simulated, else ``0``.
    """

    name: str
    codes: np.ndarray
    quals: np.ndarray
    true_pos: int | None = None
    true_strand: int = 0

    def __post_init__(self) -> None:
        self.codes = np.asarray(self.codes, dtype=np.uint8)
        self.quals = np.asarray(self.quals, dtype=np.uint8)
        if self.codes.shape != self.quals.shape:
            raise FastqError(
                f"read {self.name!r}: {self.codes.size} bases but "
                f"{self.quals.size} qualities"
            )
        if self.codes.ndim != 1:
            raise FastqError(f"read {self.name!r}: codes must be 1-D")
        if self.codes.size == 0:
            raise FastqError(f"read {self.name!r} is empty")
        if self.quals.size and self.quals.max() > MAX_QUALITY:
            raise FastqError(
                f"read {self.name!r}: quality {int(self.quals.max())} exceeds "
                f"Q{MAX_QUALITY}"
            )

    def __len__(self) -> int:
        return int(self.codes.size)

    @property
    def sequence(self) -> str:
        """The read as an upper-case string."""
        return decode(self.codes)

    @property
    def quality_string(self) -> str:
        """Phred+33 encoded quality string."""
        return "".join(chr(PHRED_OFFSET + int(q)) for q in self.quals)

    def error_probabilities(self) -> np.ndarray:
        """Per-base error probability ``10**(-Q/10)`` as float64."""
        return ERROR_PROBABILITY[self.quals]


def iter_fastq(path_or_file: "str | Path | TextIO") -> Iterator[Read]:
    """Yield :class:`Read` records from a FASTQ stream.

    Strict four-line records; a truncated trailing record raises
    :class:`FastqError` (failure injection tests rely on this).  Lines may
    end in ``\n`` or ``\r\n``.  Bytes the text layer cannot decode reach the
    checks below as lone surrogates, so every non-ASCII name, base or quality
    character is a typed error naming its record.
    """
    owned = isinstance(path_or_file, (str, Path))
    fh = open(path_or_file, errors="surrogateescape") if owned else path_or_file
    try:
        while True:
            header = fh.readline()
            if not header:
                return
            header = header.rstrip("\r\n")
            if not header.startswith("@"):
                raise FastqError(f"expected '@' header, got {header[:30]!r}")
            name = header[1:].split()[0] if len(header) > 1 else ""
            if not name:
                raise FastqError("empty FASTQ read name")
            if not name.isascii():
                raise FastqError(f"read name {name!r} is not ASCII")
            seq = fh.readline().rstrip("\r\n")
            plus = fh.readline().rstrip("\r\n")
            qual = fh.readline().rstrip("\r\n")
            if not qual and not plus:
                raise FastqError(f"truncated FASTQ record {name!r}")
            if not plus.startswith("+"):
                raise FastqError(f"record {name!r}: missing '+' separator")
            if len(seq) != len(qual):
                raise FastqError(
                    f"record {name!r}: {len(seq)} bases vs {len(qual)} qualities"
                )
            # The Q0 floor is checked here, where text becomes scores; the
            # ceiling by Read, for every way a read is made.
            try:
                quals = np.frombuffer(qual.encode("ascii"), dtype=np.uint8)
            except UnicodeEncodeError as exc:
                raise FastqError(
                    f"record {name!r}: quality character {qual[exc.start]!r} "
                    f"at position {exc.start} is not Phred+33"
                ) from None
            if quals.size and quals.min() < PHRED_OFFSET:
                raise FastqError(
                    f"record {name!r}: quality characters outside "
                    f"[Q0, Q{MAX_QUALITY}]"
                )
            try:
                codes = encode(seq)
            except SequenceError as exc:
                raise SequenceError(f"record {name!r}: {exc}") from None
            yield Read(name=name, codes=codes, quals=quals - PHRED_OFFSET)
    finally:
        if owned:
            fh.close()


def read_fastq(path_or_file: "str | Path | TextIO") -> list[Read]:
    """Read all FASTQ records into a list."""
    return list(iter_fastq(path_or_file))


def write_fastq(path_or_file: "str | Path | TextIO", reads: "list[Read]") -> None:
    """Write reads in four-line FASTQ format."""
    owned = isinstance(path_or_file, (str, Path))
    fh = open(path_or_file, "w") if owned else path_or_file
    try:
        for read in reads:
            fh.write(f"@{read.name}\n{read.sequence}\n+\n{read.quality_string}\n")
    finally:
        if owned:
            fh.close()
