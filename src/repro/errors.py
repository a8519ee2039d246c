"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch one type at an API boundary.
Subclasses are grouped by subsystem; they carry no extra state beyond the
message unless documented.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SequenceError(ReproError):
    """Invalid nucleotide sequence, encoding, or alphabet misuse."""


class FastaError(ReproError):
    """Malformed FASTA input."""


class FastqError(ReproError):
    """Malformed FASTQ input (truncated record, bad quality string, ...)."""


class VariantError(ReproError):
    """Invalid variant record or inconsistent variant application."""


class IndexError_(ReproError):
    """k-mer index construction or query failure.

    Named with a trailing underscore to avoid shadowing the builtin
    :class:`IndexError`.
    """


class ModelError(ReproError):
    """Invalid PHMM parameterisation (non-stochastic transitions, ...)."""


class AlignmentError(ReproError):
    """Pair-HMM alignment failure (empty sequences, window misuse, ...)."""


class KernelBuildError(ReproError):
    """The compiled Pair-HMM lane kernels could not be built or loaded (no C
    compiler, or the compile failed: the message holds its command and
    stderr)."""


class CallingError(ReproError):
    """LRT / SNP-calling misuse (negative counts, bad alpha, ...)."""


class AccumulatorError(ReproError):
    """Genome accumulator misuse (shape mismatch, overflow policy, ...)."""


class CommError(ReproError):
    """Communicator misuse or failure in the parallel substrate."""


class PartitionError(ReproError):
    """Invalid work or genome partitioning request."""


class PipelineError(ReproError):
    """End-to-end pipeline configuration or execution failure."""


class ConfigError(ReproError):
    """Invalid configuration value."""


class ObservabilityError(ReproError):
    """Metrics / tracing misuse (bad span name, negative counter delta, ...)."""


class SanitizerError(ReproError):
    """A numerical invariant tripped under the ``--sanitize`` debug mode.

    Carries the failed check's name, a human-readable detail string, and the
    open observability span path at the moment of failure so the defect can
    be located in the pipeline stage tree.
    """

    def __init__(self, check: str, detail: str, span_path: "tuple[str, ...]" = ()) -> None:
        self.check = check
        self.detail = detail
        self.span_path = tuple(span_path)
        where = "/".join(self.span_path) if self.span_path else "<no open span>"
        super().__init__(f"sanitizer check {check!r} failed at span {where}: {detail}")
