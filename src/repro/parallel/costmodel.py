"""LogGP-style communication/compute cost model.

The virtual-time engine charges:

* point-to-point: ``latency + nbytes * byte_time``,
* tree collectives: ``ceil(log2 P)`` rounds of point-to-point on the payload,
* computation: seconds accounted explicitly by the program (calibrated from
  measured single-process throughput — see
  :class:`~repro.pipeline.calibration.ComputeCalibration`).

Defaults approximate a 2012-era gigabit-Ethernet cluster (the paper's
environment): 50 us latency, ~1 GbE effective bandwidth.
"""

from __future__ import annotations

import math
import pickle
from dataclasses import dataclass

import numpy as np

from repro.errors import CommError


def payload_nbytes(obj: object) -> int:
    """Transport size of a message payload in bytes.

    NumPy arrays count their buffers; dicts of arrays (accumulator buffer
    form) sum their values; everything else is sized by pickling, matching
    how mpi4py's lowercase API would ship it.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, dict) and obj and all(
        isinstance(v, np.ndarray) for v in obj.values()
    ):
        return int(sum(v.nbytes for v in obj.values()))
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except (pickle.PicklingError, TypeError, AttributeError, RecursionError) as exc:
        # The concrete failure modes of pickle.dumps: PicklingError for
        # declared-unpicklable objects, TypeError for locks/generators/...,
        # AttributeError for unimportable classes, RecursionError for deep
        # self-referential payloads.
        raise CommError(f"cannot size message payload: {exc}") from exc


@dataclass(frozen=True)
class LogGPModel:
    """Latency/bandwidth cost model.

    Attributes
    ----------
    latency:
        Per-message one-way latency in seconds (LogGP's L + o).
    byte_time:
        Seconds per payload byte (LogGP's G; 1/bandwidth).
    """

    latency: float = 50e-6
    byte_time: float = 1.0 / 117e6  # ~1 GbE effective

    def __post_init__(self) -> None:
        if self.latency < 0 or self.byte_time < 0:
            raise CommError("cost-model parameters must be non-negative")

    def p2p_time(self, nbytes: int) -> float:
        """One point-to-point message of ``nbytes``."""
        if nbytes < 0:
            raise CommError("message size cannot be negative")
        return self.latency + nbytes * self.byte_time

    def _rounds(self, n_ranks: int) -> int:
        if n_ranks <= 0:
            raise CommError("n_ranks must be positive")
        return max(0, math.ceil(math.log2(n_ranks)))

    def bcast_time(self, n_ranks: int, nbytes: int) -> float:
        """Binomial-tree broadcast."""
        return self._rounds(n_ranks) * self.p2p_time(nbytes)

    def reduce_time(self, n_ranks: int, nbytes: int) -> float:
        """Binomial-tree reduction (payload size constant per hop)."""
        return self._rounds(n_ranks) * self.p2p_time(nbytes)

    def allreduce_time(self, n_ranks: int, nbytes: int) -> float:
        """Reduce + broadcast."""
        return 2.0 * self.reduce_time(n_ranks, nbytes)

    def gather_time(self, n_ranks: int, nbytes_each: int) -> float:
        """Binomial-tree gather: payload doubles each round toward the root."""
        rounds = self._rounds(n_ranks)
        total = 0.0
        for r in range(rounds):
            total += self.p2p_time(nbytes_each * (2**r))
        return total


#: Cost model that charges nothing — a ``Comm`` world without simulation.
FREE = LogGPModel(latency=0.0, byte_time=0.0)
