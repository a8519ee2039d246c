"""Command-line interface: ``python -m repro <command>``.

Six subcommands cover the full workflow on files:

``simulate``
    Build a synthetic reference + planted SNP catalog + reads
    (FASTA / TSV / FASTQ outputs).
``call``
    Run GNUMAP-SNP on a FASTA reference and FASTQ reads; write the SNP TSV.
``map``
    Align FASTQ reads against a FASTA reference; write SAM with
    posterior-weight mapping qualities.
``evaluate``
    Score a SNP TSV against a truth catalog TSV.
``top``
    Live terminal dashboard over a running ``call --telemetry``
    endpoint: rates, recovery counts, per-worker heartbeats and stall
    flags, and the live span tree.
``experiments``
    Regenerate one of the paper's tables/figures at a chosen scale.

Every command is deterministic under ``--seed``.  ``--metrics-json`` and
``--trace`` write self-describing artifacts (a run manifest with the
config, seed, worker count and package version is embedded in both).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.index.seeding import SeederConfig


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.experiments.workload import build_workload
    from repro.genome.fasta import write_fasta
    from repro.genome.fastq import write_fastq

    wl = build_workload(
        scale=args.scale,
        seed=args.seed,
        ploidy=args.ploidy,
        het_fraction=args.het_fraction,
    )
    write_fasta(args.reference, {wl.reference.name: wl.reference.codes})
    write_fastq(args.reads, wl.reads)
    wl.catalog.write_tsv(args.truth)
    print(
        f"wrote {len(wl.reference):,} bp reference -> {args.reference}\n"
        f"wrote {wl.n_reads:,} reads (~{wl.coverage:.1f}x) -> {args.reads}\n"
        f"wrote {len(wl.catalog)} truth SNPs -> {args.truth}"
    )
    return 0


def _cmd_call(args: argparse.Namespace) -> int:
    from repro.api import Engine
    from repro.calling.caller import CallerConfig
    from repro.genome.fastq import read_fastq
    from repro.pipeline.config import (
        ParallelConfig,
        PipelineConfig,
        TelemetryConfig,
    )

    config = PipelineConfig(
        k=args.k,
        accumulator=args.accumulator,
        band_mode=args.band_mode,
        band_w=args.band_width,
        band_tolerance=args.band_tolerance,
        parallel=ParallelConfig(
            chunk_timeout=args.chunk_timeout,
            max_retries=args.max_retries,
            fault_spec=args.fault_spec,
        ),
        caller=CallerConfig(ploidy=args.ploidy, alpha=args.alpha,
                            method=args.method, fdr=args.fdr),
        seeder=_seeder_config(args),
        telemetry=TelemetryConfig(
            enabled=args.telemetry,
            interval=args.telemetry_interval,
            port=args.telemetry_port,
        ),
    )
    args._config = config
    reads = read_fastq(args.reads)
    with Engine.from_fasta(args.reference, config, workers=args.workers) as engine:
        if engine.telemetry_url is not None:
            print(f"telemetry: {engine.telemetry_url}", file=sys.stderr)
            if engine.workers == 1:
                print(
                    "telemetry: only pool workers publish; the endpoint "
                    "stays empty without --workers > 1",
                    file=sys.stderr,
                )
        result = engine.run(reads)
    n = result.write_tsv(args.output)
    print(
        f"mapped {result.stats.n_mapped}/{result.stats.n_reads} reads; "
        f"wrote {n} SNP calls -> {args.output}"
    )
    if args.vcf:
        from repro.calling.vcf import write_vcf

        written, skipped = write_vcf(
            args.vcf, result.snps, contig=engine.reference.name
        )
        print(f"wrote {written} VCF records -> {args.vcf}")
    if args.report:
        from repro.evaluation.report import run_report

        with open(args.report, "w") as fh:
            fh.write(run_report(result, engine.reference))
        print(f"wrote run report -> {args.report}")
    if args.verbose:
        from repro.observability import current, format_metrics_report

        print(format_metrics_report(current().snapshot()))
    return 0


def _cmd_map(args: argparse.Namespace) -> int:
    from repro.api import Engine
    from repro.genome.fastq import read_fastq
    from repro.io.sam import collect_placements, write_sam
    from repro.pipeline.config import PipelineConfig

    config = PipelineConfig(k=args.k, seeder=_seeder_config(args))
    args._config = config
    engine = Engine.from_fasta(args.reference, config)
    reads = read_fastq(args.reads)
    placements = collect_placements(
        engine.pipeline, reads, max_secondary=args.max_secondary
    )
    n = write_sam(
        args.output, placements, engine.reference.name, len(engine.reference)
    )
    primary = sum(1 for p in placements if p.is_primary)
    print(
        f"placed {primary}/{len(reads)} reads "
        f"({n} alignment records incl. secondaries) -> {args.output}"
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    from dataclasses import dataclass

    from repro.evaluation.metrics import compare_to_truth
    from repro.genome.variants import VariantCatalog

    @dataclass
    class _Row:
        pos: int

    truth = VariantCatalog.read_tsv(args.truth)
    calls = []
    with open(args.calls) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if not header or header[0] != "pos":
            raise ReproError(f"unexpected SNP TSV header in {args.calls}")
        for lineno, line in enumerate(fh, start=2):
            pos = line.rstrip("\n").split("\t")[0]
            if not pos:
                continue
            try:
                calls.append(_Row(pos=int(pos)))
            except ValueError:
                raise ReproError(
                    f"{args.calls}: line {lineno}: bad pos {pos!r}"
                ) from None
    counts = compare_to_truth(calls, truth)
    print(
        f"TP {counts.tp}  FP {counts.fp}  FN {counts.fn}  "
        f"precision {counts.precision:.1%}  recall {counts.recall:.1%}  "
        f"F1 {counts.f1:.3f}"
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import ablations, fig4, fig5, table1, table2, table3

    modules = {
        "table1": table1,
        "table2": table2,
        "table3": table3,
        "fig4": fig4,
        "fig5": fig5,
        "ablations": ablations,
    }
    module = modules[args.name]
    rows = module.run(scale=args.scale, seed=args.seed)
    print(module.format(rows))
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    from repro.observability import run_top

    url = args.url
    if "://" not in url:
        # Accept bare host:port and :port shorthands for the common case.
        if url.startswith(":"):
            url = "127.0.0.1" + url
        if ":" not in url:
            raise ReproError(
                f"endpoint {args.url!r} needs a port (e.g. localhost:9099)"
            )
        url = "http://" + url
    if not url.rstrip("/").endswith("/metrics"):
        url = url.rstrip("/") + "/metrics"
    iterations = 1 if args.once else args.iterations
    return run_top(url, interval=args.interval, iterations=iterations)


def _add_metrics_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--metrics-json",
        default=None,
        metavar="PATH",
        help="write the run's metrics (span tree, counters, gauges, "
        "histograms) as repro.metrics/v2 JSON with a run manifest",
    )


def _add_trace_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="enable flight-recorder tracing and write the run's timeline "
        "as Chrome trace-event JSON (open in chrome://tracing or "
        "ui.perfetto.dev)",
    )


def _add_band_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--band-mode",
        default="off",
        choices=["off", "adaptive"],
        help="banded Pair-HMM fills around each candidate's seed diagonal; "
        "'adaptive' re-runs the full kernels for pairs whose posterior mass "
        "leaks past the band edge (default: off)",
    )
    p.add_argument(
        "--band-width",
        type=int,
        default=10,
        metavar="W",
        help="half-width of the DP band in diagonals (default: 10)",
    )
    p.add_argument(
        "--band-tolerance",
        type=float,
        default=1e-4,
        metavar="TOL",
        help="band-edge posterior mass per read base that triggers the "
        "adaptive full-kernel escape (default: 1e-4)",
    )


def _add_seeding_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group(
        "seeding",
        "candidate generation: PEANUT-style q-gram filtration (off by "
        "default); SNAP-style long seeds are --k 20",
    )
    g.add_argument(
        "--qgram-filter",
        action="store_true",
        help="score each clustered candidate by q-gram agreement against "
        "its reference window and drop it below --filter-threshold, before "
        "any Pair-HMM runs",
    )
    g.add_argument(
        "--filter-threshold",
        type=float,
        default=0.5,
        metavar="FRAC",
        help="fraction of the read's distinct q-grams that must occur in "
        "the candidate window to survive filtration (default: 0.5)",
    )


def _seeder_config(args: argparse.Namespace) -> "SeederConfig":
    from repro.index.seeding import SeederConfig

    return SeederConfig(
        qgram_filter=args.qgram_filter,
        filter_threshold=args.filter_threshold,
    )


def _add_parallel_args(p: argparse.ArgumentParser) -> None:
    """Worker count and the per-chunk fault-tolerance flags."""
    g = p.add_argument_group(
        "parallel execution",
        "worker fleet and per-chunk fault tolerance",
    )
    g.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="map reads across this many worker processes (default: 1)",
    )
    g.add_argument(
        "--chunk-timeout",
        type=float,
        default=120.0,
        metavar="SECS",
        help="kill and retry a worker that holds one read chunk longer than "
        "this many seconds (default: 120)",
    )
    g.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="re-dispatch a failed chunk (crash/timeout/corrupt evidence) up "
        "to N times before re-running it serially in the parent (default: 2)",
    )
    g.add_argument(
        "--fault-spec",
        default="",
        metavar="SPEC",
        help="inject deterministic worker faults for testing, e.g. "
        "'crash:chunk=0;hang:chunk=1' (modes: crash/hang/corrupt)",
    )


def _add_telemetry_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group(
        "live telemetry",
        "in-flight worker metrics over an HTTP endpoint (watch with "
        "`repro top URL`; needs --workers > 1); never changes call results",
    )
    g.add_argument(
        "--telemetry",
        action="store_true",
        help="stream live worker metrics and serve them as a "
        "repro.metrics/v2 JSON document at /metrics for the duration of "
        "the run (URL printed to stderr)",
    )
    g.add_argument(
        "--telemetry-port",
        type=int,
        default=0,
        metavar="PORT",
        help="bind the telemetry endpoint to this 127.0.0.1 port "
        "(default: 0 = pick an ephemeral port)",
    )
    g.add_argument(
        "--telemetry-interval",
        type=float,
        default=1.0,
        metavar="SECS",
        help="worker publish period in seconds (default: 1.0)",
    )


def _add_sanitize_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--sanitize",
        action="store_true",
        help="enable the runtime numerical sanitizer (NaN/Inf/negative-mass/"
        "normalisation checks in the PHMM kernels and accumulators)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GNUMAP-SNP reproduction: parallel Pair-HMM SNP detection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic workload")
    p_sim.add_argument("--scale", default="small",
                       choices=["tiny", "small", "bench", "large"])
    p_sim.add_argument("--seed", type=int, default=2012)
    p_sim.add_argument("--ploidy", type=int, default=1, choices=[1, 2])
    p_sim.add_argument("--het-fraction", type=float, default=0.0)
    p_sim.add_argument("--reference", default="reference.fa")
    p_sim.add_argument("--reads", default="reads.fq")
    p_sim.add_argument("--truth", default="truth_snps.tsv")
    p_sim.set_defaults(func=_cmd_simulate)

    p_call = sub.add_parser("call", help="run GNUMAP-SNP on files")
    p_call.add_argument("reference", help="single-record reference FASTA")
    p_call.add_argument("reads", help="FASTQ reads")
    p_call.add_argument("-o", "--output", default="snps.tsv")
    p_call.add_argument("--k", type=int, default=10,
                        help="index mer-size = seed width (default: 10; "
                        "20 is SNAP-style long seeding)")
    p_call.add_argument("--accumulator", default="NORM",
                        choices=["NORM", "CHARDISC", "CENTDISC"])
    p_call.add_argument("--ploidy", type=int, default=1, choices=[1, 2])
    p_call.add_argument("--alpha", type=float, default=0.001)
    p_call.add_argument("--method", default="bonferroni",
                        choices=["bonferroni", "fdr"])
    p_call.add_argument("--fdr", type=float, default=0.05)
    p_call.add_argument("--vcf", default=None, help="also write VCF here")
    p_call.add_argument("--report", default=None,
                        help="also write a markdown run report here")
    _add_parallel_args(p_call)
    _add_telemetry_args(p_call)
    p_call.add_argument("-v", "--verbose", action="store_true")
    _add_seeding_args(p_call)
    _add_band_args(p_call)
    _add_metrics_arg(p_call)
    _add_trace_arg(p_call)
    _add_sanitize_arg(p_call)
    p_call.set_defaults(func=_cmd_call)

    p_map = sub.add_parser("map", help="align reads, write SAM")
    p_map.add_argument("reference", help="single-record reference FASTA")
    p_map.add_argument("reads", help="FASTQ reads")
    p_map.add_argument("-o", "--output", default="alignments.sam")
    p_map.add_argument("--k", type=int, default=10,
                       help="index mer-size = seed width (default: 10; "
                       "20 is SNAP-style long seeding)")
    p_map.add_argument("--max-secondary", type=int, default=4)
    _add_seeding_args(p_map)
    _add_metrics_arg(p_map)
    _add_trace_arg(p_map)
    _add_sanitize_arg(p_map)
    p_map.set_defaults(func=_cmd_map)

    p_eval = sub.add_parser("evaluate", help="score calls against truth")
    p_eval.add_argument("calls", help="SNP TSV from `repro call`")
    p_eval.add_argument("truth", help="truth TSV from `repro simulate`")
    p_eval.set_defaults(func=_cmd_evaluate)

    p_exp = sub.add_parser("experiments", help="regenerate a paper table/figure")
    p_exp.add_argument("name", choices=["table1", "table2", "table3",
                                        "fig4", "fig5", "ablations"])
    p_exp.add_argument("--scale", default="small",
                       choices=["tiny", "small", "bench", "large"])
    p_exp.add_argument("--seed", type=int, default=2012)
    _add_metrics_arg(p_exp)
    _add_sanitize_arg(p_exp)
    p_exp.set_defaults(func=_cmd_experiments)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over a run's telemetry endpoint",
    )
    p_top.add_argument(
        "url",
        help="telemetry endpoint from `repro call --telemetry` "
        "(URL, host:port or :port; /metrics is appended if missing)",
    )
    p_top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECS",
        help="refresh period in seconds (default: 1.0)",
    )
    p_top.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: run until Ctrl-C)",
    )
    p_top.add_argument(
        "--once",
        action="store_true",
        help="fetch and render a single frame, then exit",
    )
    p_top.set_defaults(func=_cmd_top)

    return parser


def _build_manifest(args: argparse.Namespace, argv: "list[str] | None") -> dict:
    from repro.observability.manifest import run_manifest

    return run_manifest(
        config=getattr(args, "_config", None),
        seed=getattr(args, "seed", None),
        workers=getattr(args, "workers", None),
        command=getattr(args, "command", None),
        argv=list(argv) if argv is not None else sys.argv[1:],
    )


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "sanitize", False):
        from repro.phmm import sanitize

        sanitize.enable()
    if getattr(args, "trace", None):
        import repro.observability.trace as trace_mod

        trace_mod.enable()
    try:
        rc = args.func(args)
    except (ReproError, OSError) as exc:
        # OSError: an input that cannot be opened; its message names the file.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "metrics_json", None):
        # current() is the process-global registry in normal CLI use, but
        # embedders/tests can isolate a run with ``observability.use(...)``.
        from repro.observability import current, write_metrics_json

        try:
            write_metrics_json(
                args.metrics_json,
                current().snapshot(),
                manifest=_build_manifest(args, argv),
            )
        except OSError as exc:
            print(f"error: cannot write metrics: {exc}", file=sys.stderr)
            return 2
        print(f"wrote metrics -> {args.metrics_json}")
    if getattr(args, "trace", None):
        from repro.observability import current, write_chrome_trace

        try:
            write_chrome_trace(
                args.trace,
                current().snapshot(),
                manifest=_build_manifest(args, argv),
            )
        except OSError as exc:
            print(f"error: cannot write trace: {exc}", file=sys.stderr)
            return 2
        print(f"wrote Chrome trace -> {args.trace}")
    return rc


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
