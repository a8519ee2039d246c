"""The ledger benchmark: end-to-end reads/s and a per-layer replay.

Three ways to call it, all from the root of a checkout:

``python ledger/run.py --seed 2012``
    Generate the inputs, run all four workloads (end-to-end, then the
    traced replay), print every metric by name with its unit, and with
    ``--out`` write the result document.
``python ledger/run.py --workload W --seed N --seconds S --trace 0|1``
    The benchmark driver's contract: one workload, one mode; the last line
    of standard output is one JSON object with ``correct``, ``attempted``,
    ``failed`` and ``metrics``.
``python ledger/run.py --compare A.json B.json``
    Exit non-zero if any end-to-end metric on any workload is worse in B
    than in A by more than its bound; print per-layer deltas by layer.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
LEDGER = Path(__file__).resolve().parent
WORK = ROOT / ".ledger_work"
#: Environment of every measured process.  BLAS threads are pinned to 1 so
#: a workload never uses more cores than its worker count.  The allocator
#: settings keep repetitions in one regime: with glibc's adaptive
#: mmap/trim thresholds and NumPy's MADV_HUGEPAGE, a repetition's ~20 MB DP
#: matrices are sometimes recycled from the heap and sometimes faulted in
#: afresh as huge pages, and repetition wall flips between two modes 1.7x
#: apart (README.md, "Why the child environment is pinned").
CHILD_ENVIRONMENT = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMPY_MADVISE_HUGEPAGE": "0",
    "MALLOC_MMAP_THRESHOLD_": str(32 * 1024 * 1024),
    "MALLOC_TRIM_THRESHOLD_": str(4 * 1024**3),
}


def load_benchmark() -> "dict[str, Any]":
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_workload(
    workload: str, seed: int, seconds: float, trace: int, spec: Any = None
) -> "dict[str, Any]":
    """Generate inputs, run one workload in a fresh child, return its
    document.  ``document["spans"]`` holds the replay's spans when traced."""
    from workloads import Spec, generate

    work = WORK / f"{workload}-{seed}-{trace}-{os.getpid()}"
    env = {**os.environ, **CHILD_ENVIRONMENT}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    try:
        generate(work, seed, spec or Spec())
        out = work / "result.json"
        # One child at a time; the child owns every Engine and closes it,
        # so no worker or shm segment outlives this call.
        proc = subprocess.run(
            [
                sys.executable, str(LEDGER / "child.py"),
                "--dir", str(work), "--workload", workload,
                "--seconds", str(seconds), "--trace", str(trace),
                "--out", str(out),
            ],
            env=env,
            cwd=ROOT,
        )
        if proc.returncode != 0:
            raise SystemExit(f"ledger: workload {workload} failed to run")
        with open(out) as fh:
            document = json.load(fh)
        if trace:
            with open(out.with_suffix(".spans.json")) as fh:
                document["spans"] = json.load(fh)
        return document
    finally:
        shutil.rmtree(work, ignore_errors=True)


def driver_result(
    document: "dict[str, Any]", declared: "list[dict[str, Any]]"
) -> "dict[str, Any]":
    """The driver's result object: every declared metric, as a number.

    A per-layer metric the workload's path does not produce is missing
    from the child's document; it is reported as 0 here (the contract
    wants numbers) and as ``null`` in full mode.
    """
    metrics = {}
    for entry in declared:
        value = document["metrics"].get(entry["name"])
        metrics[entry["name"]] = {
            "value": 0.0 if value is None else value,
            "unit": entry["unit"],
        }
    return {
        "correct": document["failed"] == 0,
        "attempted": document["attempted"],
        "failed": document["failed"],
        "metrics": metrics,
    }


def environment() -> "dict[str, Any]":
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
    }


def format_value(value: "float | None") -> str:
    if value is None:
        return "null (not produced on this workload)"
    return f"{value:.6g}"


def print_workload(name: str, entry: "dict[str, Any]", bench: "dict[str, Any]") -> None:
    print(f"\n== {name} ==")
    wall = entry["detail"]["repetition_wall_s"]
    print(
        f"  repetition wall: median {wall['median']:.4f} s "
        f"[q1 {wall['q1']:.4f}, q3 {wall['q3']:.4f}], n={wall['n']}"
    )
    for metric in bench["end_to_end"]:
        value = entry["end_to_end"][metric["name"]]
        print(f"  {metric['name']:<28} {format_value(value):>14} {metric['unit']}")
    print(
        f"  {'fail_share':<28} {entry['failed']}/{entry['attempted']} repetitions"
    )
    layer = None
    for metric in bench["per_layer"]:
        prefix = metric["name"].split(".")[0]
        if prefix != layer:
            layer = prefix
            print(f"  -- {layer}")
        value = entry["per_layer"].get(metric["name"])
        print(f"  {metric['name']:<40} {format_value(value):>14} {metric['unit']}")
    for failure in entry["failures"]:
        print(f"  FAILED {failure}")


def run_all(seed: int, seconds: float, out: "Path | None", spec: Any = None) -> int:
    """Every workload, both modes, one child process at a time."""
    bench = load_benchmark()
    result: "dict[str, Any]" = {
        "schema": "ledger/v1",
        "seed": seed,
        "run_seconds": seconds,
        "environment": environment(),
        "workloads": {},
    }
    failed = 0
    for workload in bench["workloads"]:
        name = workload["name"]
        plain = run_workload(name, seed, seconds, 0, spec)
        traced = run_workload(name, seed, seconds, 1, spec)
        spans = traced.pop("spans")
        entry = {
            "why": workload["why"],
            "end_to_end": plain["metrics"],
            "per_layer": traced["metrics"],
            "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"],
            "failures": plain["failures"] + traced["failures"],
            "detail": {**plain["detail"], **traced["detail"]},
        }
        result["workloads"][name] = entry
        failed += entry["failed"]
        print_workload(name, entry, bench)
        if out is not None:
            with open(out.with_suffix(f".spans.{name}.json"), "w") as fh:
                json.dump(spans, fh)
    print(f"\nenvironment: {json.dumps(result['environment'])}")
    if out is not None:
        with open(out, "w") as fh:
            json.dump(result, fh, indent=1)
    return 1 if failed else 0


def compare(path_a: Path, path_b: Path) -> int:
    """B against A: end-to-end bounds gate, per-layer deltas inform."""
    bench = load_benchmark()
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    regressions = 0
    for name in a["workloads"]:
        wa, wb = a["workloads"][name], b["workloads"].get(name)
        if wb is None:
            print(f"{name}: missing from {path_b}")
            regressions += 1
            continue
        print(f"\n== {name} ==")
        for metric in bench["end_to_end"]:
            va, vb = wa["end_to_end"][metric["name"]], wb["end_to_end"][metric["name"]]
            worse = (va - vb) / va if metric["better"] == "higher" else (vb - va) / va
            verdict = "ok"
            if worse > metric["bound"]:
                verdict = f"REGRESSION (bound {metric['bound']:.0%})"
                regressions += 1
            print(
                f"  {metric['name']:<28} {va:>12.6g} -> {vb:>12.6g} "
                f"{metric['unit']:<8} worse by {worse:+.1%}  {verdict}"
            )
        if wa["failed"] or wb["failed"]:
            print(f"  fail_share                   {wa['failed']} -> {wb['failed']} failed  REGRESSION")
            regressions += 1
        layer = None
        for metric in bench["per_layer"]:
            va, vb = wa["per_layer"].get(metric["name"]), wb["per_layer"].get(metric["name"])
            if va is None or vb is None:
                continue
            prefix = metric["name"].split(".")[0]
            if prefix != layer:
                layer = prefix
                print(f"  -- {layer}")
            delta = f"{(vb - va) / va:+.1%}" if va else "n/a"
            print(
                f"  {metric['name']:<40} {va:>12.6g} -> {vb:>12.6g} "
                f"{metric['unit']:<10} {delta}"
            )
    print(f"\n{regressions} end-to-end regression(s)")
    return 1 if regressions else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (driver mode)")
    parser.add_argument("--seed", type=int, default=2012)
    parser.add_argument("--seconds", type=float, help="timed window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the full-mode document here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not (ROOT / "src" / "repro").is_dir():
        # Nothing to measure: the program's sources are not in this checkout.
        print("ledger: src/repro not found; nothing to benchmark", file=sys.stderr)
        return 2
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    if args.workload is None:
        return run_all(args.seed, seconds, args.out)
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error(f"unknown workload {args.workload!r}")
    document = run_workload(args.workload, args.seed, seconds, args.trace)
    declared = bench["per_layer"] if args.trace else bench["end_to_end"]
    result = driver_result(document, declared)
    for failure in document["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
