"""Minimal, strict FASTA reader/writer.

Only the features the pipeline needs: multiple records, arbitrary line wrap,
``ACGTN`` alphabets.  The reader is strict — a file that does not start with
a header, or contains an empty sequence, raises :class:`FastaError` rather
than silently producing odd records.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, TextIO

import numpy as np

from repro.errors import FastaError, SequenceError
from repro.genome.alphabet import decode, encode


def _open_text(path_or_file: "str | Path | TextIO", mode: str) -> "tuple[TextIO, bool]":
    if isinstance(path_or_file, (str, Path)):
        # An undecodable byte becomes a lone surrogate, which the alphabet
        # rejects as a typed error instead of a decoding traceback.
        errors = "surrogateescape" if mode == "r" else None
        return open(path_or_file, mode, errors=errors), True
    return path_or_file, False


def _encode_record(name: str, chunks: "list[str]") -> np.ndarray:
    if not chunks:
        raise FastaError(f"record {name!r} has no sequence")
    try:
        return encode("".join(chunks))
    except SequenceError as exc:
        raise SequenceError(f"record {name!r}: {exc}") from None


def iter_fasta(path_or_file: "str | Path | TextIO") -> Iterator[tuple[str, np.ndarray]]:
    """Yield ``(name, codes)`` for each record in a FASTA file.

    ``name`` is the header text up to the first whitespace.  Sequence lines
    are concatenated and encoded to ``uint8`` codes; an invalid base raises
    :class:`SequenceError` naming the record and its position there.
    """
    fh, owned = _open_text(path_or_file, "r")
    try:
        name: str | None = None
        chunks: list[str] = []
        lineno = 0
        for line in fh:
            lineno += 1
            line = line.rstrip("\n").rstrip("\r")
            if not line:
                continue
            if line.startswith(">"):
                if name is not None:
                    yield name, _encode_record(name, chunks)
                name = line[1:].split()[0] if len(line) > 1 else ""
                if not name:
                    raise FastaError(f"empty FASTA header at line {lineno}")
                if not name.isascii():
                    raise FastaError(f"record name {name!r} at line {lineno} is not ASCII")
                chunks = []
            else:
                if name is None:
                    raise FastaError(
                        f"sequence data before any header at line {lineno}"
                    )
                chunks.append(line)
        if name is not None:
            yield name, _encode_record(name, chunks)
        elif lineno == 0:
            raise FastaError("empty FASTA input")
    finally:
        if owned:
            fh.close()


def read_fasta(path_or_file: "str | Path | TextIO") -> dict[str, np.ndarray]:
    """Read a whole FASTA file into ``{name: codes}``.

    Duplicate record names raise :class:`FastaError`.
    """
    out: dict[str, np.ndarray] = {}
    for name, codes in iter_fasta(path_or_file):
        if name in out:
            raise FastaError(f"duplicate FASTA record {name!r}")
        out[name] = codes
    return out


def write_fasta(
    path_or_file: "str | Path | TextIO",
    records: dict[str, np.ndarray],
    width: int = 70,
) -> None:
    """Write ``{name: codes}`` records, wrapping sequence lines at ``width``."""
    if width <= 0:
        raise FastaError(f"line width must be positive, got {width}")
    fh, owned = _open_text(path_or_file, "w")
    try:
        for name, codes in records.items():
            if not name or any(ch.isspace() for ch in name):
                raise FastaError(f"invalid FASTA record name {name!r}")
            seq = decode(codes)
            fh.write(f">{name}\n")
            for start in range(0, len(seq), width):
                fh.write(seq[start : start + width] + "\n")
    finally:
        if owned:
            fh.close()
