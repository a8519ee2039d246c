"""The paper's two MPI modes, written against the ``Comm`` API.

Read-spread ("shared memory" in Fig. 4)
    Every rank holds the whole genome, index and accumulator; reads are
    partitioned.  One accumulator reduction at the end.  Near-linear scaling
    — per-rank compute drops as 1/P and communication is a single payload.

Memory-spread (genome-partitioned)
    One program with a group count.  The genome is split into ``n_groups``
    contiguous segments (plus a halo so candidate windows never cross
    ownership), and each rank runs a ``GnumapSnp`` over its group's
    extended segment.  Every rank sees every read (broadcast), the ranks
    of a group share its reads out between them, each seeds against the
    segment and keeps the candidates the group *owns* (candidate start
    inside the core segment).  Per read batch the ranks make two
    allreduces: one of their owned candidates, so each keeps serial's best
    candidates of every read (``Seeder.seed``'s cut) and aligns only its
    own; one of those candidates' scores, so each weighs every read with
    serial's rule — the communication that spoils scaling.  The
    group's leader receives its members' evidence, one ordered send per
    member, and ships what it accumulated into the halo to the owning
    neighbour group at the end.  One rank per group (the default) is the
    paper's memory-spread mode, where every rank seeds every read; fewer
    groups are its "distributed memory and/or shared memory" hybrid.

Both programs compute real results (used by the correctness tests against
serial runs) while charging calibrated compute and modelled communication to
the virtual clocks (used by the Fig. 4/5 reproductions).

These drivers model the *paper's* cluster topology; the production
multi-core path on one machine is :mod:`repro.pipeline.mp_backend` backed
by the persistent shared-memory pool (:mod:`repro.parallel.pool`) — reads
spread over workers with zero-copy genome/index broadcast instead of
per-rank replicas, and one parent-owned accumulator instead of the
end-of-run reduction these drivers keep (DESIGN §14).
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.calling.records import SNPCall
from repro.errors import PipelineError
from repro.genome.fastq import Read
from repro.genome.reference import Reference, Segment
from repro.index.seeding import SeedBlock, best_candidates
from repro.memory.base import Accumulator
from repro.observability import current, scope, span
from repro.parallel.comm import Comm
from repro.parallel.partition import partition_reads_contiguous
from repro.parallel.reduction import reduce_accumulator
from repro.pipeline.calibration import ComputeCalibration
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


#: Reads per memory-spread round: each round's scored candidates meet in
#: one global allreduce.
READ_BATCH = 256


def run_read_spread(
    comm: Comm,
    reference: Reference,
    reads: "list[Read]",
    config: PipelineConfig | None = None,
    calibration: ComputeCalibration | None = None,
) -> "list[SNPCall] | None":
    """Read-partitioned SPMD program (call via ``Cluster.run``); the root
    returns the calls, every other rank ``None``."""
    config = config or PipelineConfig()
    pipe = GnumapSnp(reference, config)
    if calibration:
        comm.account_compute(calibration.index_seconds(len(reference)))

    mine = partition_reads_contiguous(len(reads), comm.size)[comm.rank]
    local_reads = reads[mine.start : mine.stop]
    with scope() as reg:
        acc = pipe.map_reads(local_reads)
    if calibration:
        n_pairs = int(reg.snapshot_values().counter("pipeline.pairs"))
        comm.account_compute(calibration.mapping_seconds(len(local_reads), n_pairs))

    with span("reduce"):
        merged = reduce_accumulator(comm, acc, root=0)

    if comm.rank != 0:
        return None
    if calibration:
        comm.account_compute(calibration.calling_seconds(len(reference)))
    return pipe.call_snps(merged)


def run_memory_spread(
    comm: Comm,
    reference: Reference,
    reads: "list[Read] | None",
    config: PipelineConfig | None = None,
    calibration: ComputeCalibration | None = None,
    n_groups: int | None = None,
) -> "list[SNPCall] | None":
    """Genome-partitioned SPMD program (call via ``Cluster.run``); the root
    returns the calls, every other rank ``None``.

    ``n_groups`` rank groups each own one genome segment, so per-rank
    memory scales as 1/groups; inside a group the reads are partitioned,
    so per-rank seeding/alignment work scales as 1/group_size.  The default
    ``n_groups=None`` means one rank per group — the paper's memory-spread
    mode, where every rank seeds every read; fewer groups give its
    "distributed memory and/or shared memory" hybrid.  Per-read score
    normalisation is a global allreduce; each group's genome state merges
    at its leader, and halos flow between neighbouring group leaders.
    The ``pipeline.*`` counters count each read once, as serial does.

    Only the root needs ``reads``; they are broadcast (a real, costed
    message) to every rank.  ``comm.size`` must be divisible by
    ``n_groups``.
    """
    config = config or PipelineConfig()
    if n_groups is None:
        n_groups = comm.size
    if n_groups < 1:
        raise PipelineError(f"n_groups must be >= 1, got {n_groups}")
    if comm.size % n_groups != 0:
        raise PipelineError(
            f"world size {comm.size} not divisible by n_groups {n_groups}"
        )
    rpg = comm.size // n_groups
    group = comm.rank // rpg
    leader = group * rpg
    reads = comm.bcast(reads, root=0)
    if reads is None:
        raise PipelineError("root must supply the reads")

    seg = Reference.split(reference, n_groups)[group]
    halo = max((len(r) for r in reads), default=0) + config.pad
    ext_start = max(0, seg.start - halo)
    ext_stop = min(len(reference), seg.stop + halo)
    pipe = GnumapSnp(
        Reference(
            np.asarray(reference.codes[ext_start:ext_stop]),
            name=f"{reference.name}[{ext_start}:{ext_stop}]",
        ),
        config,
    )
    if calibration:
        comm.account_compute(calibration.index_seconds(len(pipe.reference)))

    acc = pipe.accumulator_or_new(None)
    for batch_lo in range(0, len(reads), READ_BATCH):
        batch = reads[batch_lo : batch_lo + READ_BATCH]
        _process_read_batch(
            comm, pipe, acc, batch, np.arange(comm.rank % rpg, len(batch), rpg),
            seg, ext_start, calibration,
        )

    # Genome state merges at the group's leader, in rank order (the order
    # Comm.reduce applies); only leaders keep going.
    with span("reduce"):
        if comm.rank != leader:
            comm.send(acc.to_buffers(), dest=leader)
        else:
            for member in range(leader + 1, leader + rpg):
                acc.merge(type(acc).from_buffers(acc.length, comm.recv(source=member)))

    local_snps: "list[SNPCall] | None" = None
    if comm.rank == leader:
        with span("halo_exchange"):
            _halo_exchange(
                comm, acc, seg, ext_start,
                left=(group - 1) * rpg if group > 0 else None,
                right=(group + 1) * rpg if group < n_groups - 1 else None,
            )
        # Per-segment calling on the core region, then gather to root.
        z = acc.snapshot()[seg.start - ext_start : seg.stop - ext_start]
        positions = np.arange(seg.start, seg.stop, dtype=np.int64)
        if calibration:
            comm.account_compute(calibration.calling_seconds(len(seg)))
        local_snps = pipe.caller.snps(z, reference.codes, positions=positions)

    gathered_snps = comm.gather(local_snps, root=0)
    if comm.rank != 0:
        return None
    snps = [snp for part in gathered_snps if part is not None for snp in part]
    snps.sort(key=lambda s: s.pos)
    return snps


def _process_read_batch(
    comm: Comm,
    pipe: GnumapSnp,
    acc: Accumulator,
    batch: "list[Read]",
    mine: np.ndarray,
    seg: Segment,
    ext_start: int,
    calibration: ComputeCalibration | None,
) -> None:
    """Align one batch of reads against the local segment with global weights.

    ``mine`` indexes the batch reads *this* rank seeds (its share of the
    group's reads).  One allreduce gathers the owned candidates, which each
    rank cuts as serial does (:func:`best_candidates`), aligning its own
    survivors; one gathers their scores, so each weighs the batch as serial
    does.  Each rank counts the pairs it aligns and its kernel calls; rank 0
    counts the batch's reads, a read being mapped when it keeps a candidate.
    """
    seeded = pipe.seeder.seed([batch[b] for b in mine.tolist()])
    # This rank aligns the candidates its group owns: those starting in
    # the core segment.  A candidate overhanging position 0 (start < 0)
    # belongs to the first segment; no start reaches past the genome's end.
    owned = seeded[seg.contains(np.maximum(ext_start + seeded.start, 0))]
    owned = replace(owned, read=mine[owned.read])
    shifted = replace(owned, start=ext_start + owned.start, diagonal=ext_start + owned.diagonal)
    with span("allreduce_candidates"):
        every = comm.allreduce(
            {**vars(shifted), "rank": np.full(len(owned), comm.rank)},
            op=lambda a, b: {key: np.concatenate((a[key], b[key])) for key in a},
        )
    # `every` is one object shared by all ranks: read it, never write it.
    ranks = every["rank"]
    kept = best_candidates(SeedBlock(*(every[key] for key in vars(owned))), len(batch))
    owner = ranks[kept]
    own = owner == comm.rank
    # Serial's survivors, in serial's order; the ranks' rows arrived in rank
    # order, so this rank's are `owned` shifted by the rows ahead of them.
    survivors = owned[kept[own] - np.searchsorted(ranks, comm.rank)]
    if calibration:
        comm.account_compute(calibration.mapping_seconds(len(mine), len(survivors)))
    batches = list(pipe.align_seeded(batch, [survivors]))

    loglik = np.concatenate([ev.loglik for ev in batches] or [np.empty(0)])
    with span("allreduce_normalise"):
        scores = comm.allreduce(loglik, op=lambda a, b: np.concatenate((a, b)))
    # Scores arrive in rank order, each rank's in serial order.
    placed = np.empty(kept.size)
    placed[np.argsort(owner, kind="stable")] = scores
    weights = pipe.weigh(placed, every["read"][kept])[own]

    reg = current()
    reg.inc("pipeline.pairs", len(survivors))
    if comm.rank == 0:
        n_mapped = np.unique(every["read"]).size
        reg.inc("pipeline.reads", len(batch))
        reg.inc("pipeline.reads_mapped", n_mapped)
        reg.inc("pipeline.reads_unmapped", len(batch) - n_mapped)
    for evidence in batches:
        pipe.accumulate(acc, evidence, weights[: evidence.loglik.size])
        weights = weights[evidence.loglik.size :]


def _halo_exchange(
    comm: Comm,
    acc: Accumulator,
    seg: Segment,
    ext_start: int,
    left: "int | None",
    right: "int | None",
) -> None:
    """Ship halo evidence to the owning neighbours and fold theirs in.

    Evidence this rank accumulated at positions left of its core belongs to
    the ``left`` neighbour rank; right of the core to ``right``; ``None``
    means no neighbour on that side (the genome ends).  Payloads are dense
    z slices (honestly sized); received slices are folded in via ``add``.
    """
    if left is None and right is None:
        return
    snap = acc.snapshot()
    core_lo = seg.start - ext_start
    core_hi = seg.stop - ext_start

    # Exchange with left neighbour then right neighbour; even/odd phasing is
    # unnecessary because mailbox receives are non-rendezvous.
    if left is not None:
        comm.send((ext_start, snap[:core_lo].copy()), dest=left, tag=101)
    if right is not None:
        comm.send((seg.stop, snap[core_hi:].copy()), dest=right, tag=100)

    def fold(payload: tuple[int, np.ndarray]) -> None:
        global_lo, z = payload
        if z.size == 0:
            return
        local = np.arange(global_lo, global_lo + z.shape[0]) - ext_start
        keep = (local >= 0) & (local < acc.length)
        nz = z.sum(axis=1) > 0
        m = keep & nz
        if m.any():
            acc.add(local[m], z[m])

    if right is not None:
        fold(comm.recv(source=right, tag=101))
    if left is not None:
        fold(comm.recv(source=left, tag=100))
