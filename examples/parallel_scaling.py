#!/usr/bin/env python3
"""Parallel scaling on the simulated cluster: the paper's two MPI modes.

Runs the read-spread ("shared memory") and memory-spread programs over
1..8 simulated ranks, printing sequences/second, parallel efficiency, and a
correctness check against the serial pipeline — a miniature Fig. 4.

    python examples/parallel_scaling.py
"""

from repro import Engine, PipelineConfig, build_workload
from repro.parallel import Cluster, LogGPModel
from repro.pipeline import ComputeCalibration, run_memory_spread, run_read_spread


def main() -> None:
    wl = build_workload(scale="tiny", seed=11)
    config = PipelineConfig()
    print(f"workload: {len(wl.reference):,} bp, {wl.n_reads:,} reads")

    serial = Engine(wl.reference, config).run(wl.reads)
    serial_snps = {(s.pos, s.alt_name) for s in serial.snps}
    print(f"serial pipeline called {len(serial_snps)} SNPs\n")

    calibration = ComputeCalibration.measure(
        wl.reference, wl.reads[: max(100, wl.n_reads // 10)], config
    )
    print(
        f"calibration: {1e3 * calibration.seconds_per_read:.2f} ms/read, "
        f"{calibration.pairs_per_read:.2f} candidates/read\n"
    )

    cost = LogGPModel()  # ~GbE cluster: 50 us latency, ~1 Gb/s
    print(f"{'mode':<14} {'ranks':>5} {'sim time':>9} {'reads/s':>9} {'eff':>6} match")
    # The genome-partitioned program takes a group count: one group per rank
    # is memory-spread; two node-groups split the genome across them and the
    # reads within them.
    for mode, program, n_groups in (
        ("read-spread", run_read_spread, ()),
        ("memory-spread", run_memory_spread, ()),
        ("hybrid (G=2)", run_memory_spread, (2,)),
    ):
        base = None
        for p in (1, 2, 4, 8):
            if mode.startswith("hybrid") and p % 2:
                continue  # hybrid needs the world divisible by its groups
            res = Cluster(p, cost).run(
                program, wl.reference, wl.reads, config, calibration, *n_groups
            )
            rate = wl.n_reads / res.makespan
            base = base if base is not None else rate / p  # per-rank baseline
            eff = rate / (base * p)
            got = {(s.pos, s.alt_name) for s in res.results[0]}
            print(
                f"{mode:<14} {p:>5} {res.makespan:>8.2f}s {rate:>9.0f} "
                f"{eff:>5.0%}  {'OK' if got == serial_snps else 'DIFFERS'}"
            )
        print()


if __name__ == "__main__":
    main()
