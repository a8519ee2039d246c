"""Parallel substrate: an mpi4py-flavoured communicator with virtual time.

The paper's cluster experiments need more cores than a workstation has, and
MPI, so they run on a *simulated* cluster (see DESIGN.md §2): rank programs
execute as
real concurrent threads against :class:`~repro.parallel.comm.Comm`
(real message passing, real reductions, real data), while each rank's
virtual time (``Comm.now``) advances by a calibrated LogGP cost model for
compute and communication.  Speedup figures read the virtual clocks;
correctness tests compare parallel results bit-for-bit against serial
execution.

The ``Comm`` API is the six mpi4py calls the paper's two programs make
(``send/recv/bcast/gather/reduce/allreduce``), so the programs would port to
real mpi4py verbatim.
"""

from repro.parallel.costmodel import LogGPModel, payload_nbytes
from repro.parallel.comm import Comm
from repro.parallel.cluster import Cluster, ClusterResult
from repro.parallel.partition import partition_reads_contiguous
from repro.parallel.reduction import reduce_accumulator

__all__ = (
    "LogGPModel",
    "payload_nbytes",
    "Comm",
    "Cluster",
    "ClusterResult",
    "partition_reads_contiguous",
    "reduce_accumulator",
)
