#!/usr/bin/env python3
"""Quickstart: simulate a small genome, plant SNPs, call them back.

Runs in ~15 s on one core.  Demonstrates the core public API:
workload building, the :class:`repro.api.Engine` facade, and truth-set
evaluation.

    python examples/quickstart.py
"""

from repro import Engine, PipelineConfig, build_workload
from repro.evaluation.metrics import compare_to_truth
from repro.observability import format_metrics_report

def main() -> None:
    # A deterministic scaled-down chrX-like workload: synthetic reference
    # with repeats, evenly spaced planted SNPs, Illumina-style 62-bp reads.
    wl = build_workload(scale="tiny", seed=42)
    print(
        f"genome: {len(wl.reference):,} bp | planted SNPs: {len(wl.catalog)} | "
        f"reads: {wl.n_reads:,} (~{wl.coverage:.1f}x)"
    )

    # The pipeline: k-mer seeding -> quality-aware Pair-HMM marginal
    # alignment -> evidence accumulation -> likelihood-ratio test.
    # band_mode="adaptive" fills only a band around each seed diagonal,
    # escaping to the full kernels wherever the band assumption breaks.
    engine = Engine(wl.reference, PipelineConfig(band_mode="adaptive"))
    result = engine.run(wl.reads)

    print(f"\nmapped {result.stats.n_mapped}/{result.stats.n_reads} reads "
          f"({result.stats.n_pairs} candidate alignments)")
    print(format_metrics_report(result.metrics))

    print(f"\ncalled {len(result.snps)} SNPs:")
    for snp in result.snps:
        truth = wl.catalog.at(snp.pos)
        mark = "TRUE" if truth else "FALSE-POSITIVE"
        print(
            f"  pos {snp.pos:>7} {snp.ref_name}->{snp.alt_name} "
            f"depth {snp.call.depth:5.1f} p={snp.call.pvalue:.2e}  [{mark}]"
        )

    counts = compare_to_truth(result.snps, wl.catalog)
    print(
        f"\nTP {counts.tp} | FP {counts.fp} | FN {counts.fn} | "
        f"precision {counts.precision:.1%} | recall {counts.recall:.1%}"
    )


if __name__ == "__main__":
    main()
