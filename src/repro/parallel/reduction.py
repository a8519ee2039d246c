"""Genome-state reductions over the communicator.

At the end of a read-spread run every rank holds a partial accumulator for
the whole genome; the states must be merged ("each of the machines will
communicate the state of their genome and SNPs will be called accordingly").
The reduction ships accumulators in their buffer form
(:meth:`~repro.memory.base.Accumulator.to_buffers`) so the cost model sees
the true payload sizes — which is exactly where CHARDISC/CENTDISC win:
their buffers are 2.2x / 4x smaller than NORM's.

Merging discretised accumulators uses each implementation's own ``merge``
(the CENTDISC path goes through the precomputed 256x256 LUT when totals are
comparable).
"""

from __future__ import annotations

from typing import Callable

from repro.errors import CommError
from repro.memory.base import Accumulator
from repro.parallel.comm import Comm


def _merge_buffers(
    acc_type: "type[Accumulator]", length: int, layout: "dict[str, tuple]"
) -> "Callable[[dict, dict], dict]":
    """Binary reduction operator over accumulator buffer dicts.

    ``layout`` maps each buffer key to its array shape on the calling rank;
    a buffer dict laid out otherwise came from a rank with another
    accumulator type or length, and the reduction fails with
    :class:`CommError` instead of merging it.
    """

    def op(a: dict, b: dict) -> dict:
        for buffers in (a, b):
            if _layout(buffers) != layout:
                raise CommError(
                    "ranks disagree on accumulator type/length: buffer layout "
                    f"{_layout(buffers)} against {layout}"
                )
        left = acc_type.from_buffers(length, a)
        right = acc_type.from_buffers(length, b)
        left.merge(right)
        return left.to_buffers()

    return op


def _layout(buffers: dict) -> "dict[str, tuple]":
    return {key: array.shape for key, array in buffers.items()}


def reduce_accumulator(comm: Comm, acc: Accumulator, root: int = 0) -> "Accumulator | None":
    """Tree-reduce accumulators to ``root``; returns the merged one there.

    Non-root ranks return ``None``.  All ranks must pass same-type,
    same-length accumulators; the reduction raises :class:`CommError` when
    their buffers are laid out differently.
    """
    buffers = acc.to_buffers()
    buffers = comm.reduce(
        buffers, _merge_buffers(type(acc), acc.length, _layout(buffers)), root=root
    )
    if comm.rank != root:
        return None
    return type(acc).from_buffers(acc.length, buffers)
