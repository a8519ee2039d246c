"""Do this tree and a git ref make the same calls?  One declared matrix.

    python tools/identity.py --ref 6283481            # 33 configs x 4 seeds
    python tools/identity.py --ref origin/main --quick

The ref is exported with ``git archive`` into a temporary directory (no
worktree state is left in ``.git``).  For every seed, the ledger's input
generator (``ledger/workloads.py``, which imports nothing from ``repro``)
writes one input set, and one child process per (tree, seed) runs every
configuration of the matrix against it with ``PYTHONPATH`` pointing at that
tree's ``src``.  Each configuration reports the sha256 of

* its call TSV, as ``CallResult.write_tsv`` writes it (for the ``roc`` run,
  the ROC sweep's scored ``(pos, stat)`` candidates, one per line);
* its accumulator's ``to_buffers()`` (``-`` for the simulated-cluster
  programs, whose root returns calls only);
* its ``seed.*``, ``phmm.pairs`` and ``caller.snps`` counters and the
  mapping counts (``COUNTS``).

The table has one row per (seed, configuration).  Its last column compares
a row that must equal a serial run (``TWINS``) with that run in this tree:
call TSV and accumulator must both be equal.  The exit status is 1 when any
call TSV differs from the ref's or any row differs from its twin, and 0
otherwise: accumulator and counter differences against the ref are printed
but do not fail, because a kernel change may legitimately move
quantising-accumulator bits without moving a call.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[1]
SEEDS = (31337, 2012, 7, 5150)
QUICK_SEEDS = SEEDS[:2]
#: The ledger's pinned child environment, less its allocator tuning.
CHILD_ENVIRONMENT = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _matrix() -> "dict[str, dict[str, Any]]":
    """Configuration name -> how to run it.  Keys: ``ref`` (input file),
    ``config`` / ``seeder`` (``PipelineConfig`` / ``SeederConfig`` keywords),
    ``workers`` (``Engine``), ``fault_spec`` (``ParallelConfig``), ``telemetry``
    (``TelemetryConfig`` keywords), ``run`` (``engine``, ``online``,
    ``paired``, ``roc``, ``read_spread`` or ``memory_spread``), ``ranks``
    (cluster size) and ``groups`` (``run_memory_spread``'s ``n_groups``)."""
    m: "dict[str, dict[str, Any]]" = {
        # The four ledger workloads, spelled as ledger/child.py spells them.
        "phmm_full": {},
        "pool2_warm": {"workers": 2},
        # The pool's recovery path: a worker death, then a rejected partial.
        "pool2/faulted": {"workers": 2, "fault_spec": "crash:chunk=0;corrupt:chunk=1"},
        # The pool with the live plane on, without its HTTP endpoint.
        "pool2/telemetry": {
            "workers": 2,
            "telemetry": {"enabled": True, "interval": 0.05, "port": None},
        },
        # The stream over the same warm pool, telemetry on: three feeds, so
        # the fleet idles between runs.
        "online/pool2": {
            "workers": 2,
            "telemetry": {"enabled": True, "interval": 0.05, "port": None},
            "run": "online",
        },
        "seed_heavy": {
            "ref": "ref_decoy.fa",
            "seeder": {"qgram_filter": True},
            "config": {"band_mode": "adaptive"},
        },
        # The attached direct-address table and the q-gram filter on the
        # decoy, through the pool's shared memory.
        "seed_heavy/w2": {
            "ref": "ref_decoy.fa",
            "seeder": {"qgram_filter": True},
            "config": {"band_mode": "adaptive"},
            "workers": 2,
        },
        "fast_chardisc": {
            "seeder": {"seed_len": 20, "qgram_filter": True},
            "config": {"band_mode": "adaptive", "accumulator": "CHARDISC"},
        },
        # The one int32-key wide table (k = 11..15; the workloads use 10 and
        # 20), searched in its own dtype, under the q-gram filter.
        "k12/filter": {"config": {"k": 12}, "seeder": {"qgram_filter": True}},
    }
    for acc in ("CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED"):
        m[acc] = {"config": {"accumulator": acc}}
        m[f"{acc}/adaptive"] = {"config": {"accumulator": acc, "band_mode": "adaptive"}}
        m[f"{acc}/w2"] = {"config": {"accumulator": acc}, "workers": 2}
        m[f"{acc}/w3"] = {"config": {"accumulator": acc}, "workers": 3}
    m["viterbi"] = {"config": {"posterior_mode": "viterbi"}}
    m["edge_paper"] = {"config": {"edge_policy": "paper"}}
    m["paired/CHARDISC"] = {"config": {"accumulator": "CHARDISC"}, "run": "paired"}
    # The ROC sweep's candidate scores (experiments/roc.py).
    m["roc"] = {"run": "roc"}
    for run in ("read_spread", "memory_spread"):
        for ranks in (1, 2, 4):
            m[f"{run}/P{ranks}"] = {
                "config": {"accumulator": "CHARDISC"}, "run": run, "ranks": ranks,
            }
    # The hybrid: several ranks per genome group, merged at the group leader.
    for ranks, groups in ((4, 2), (6, 3)):
        m[f"memory_spread/P{ranks}G{groups}"] = {
            "config": {"accumulator": "CHARDISC"}, "run": "memory_spread",
            "ranks": ranks, "groups": groups,
        }
    return m


MATRIX = _matrix()
QUICK = (
    "phmm_full", "pool2_warm", "pool2/faulted", "pool2/telemetry", "online/pool2",
    "seed_heavy", "seed_heavy/w2", "fast_chardisc", "k12/filter", "CHARDISC", "CHARDISC/w3",
    "CENTDISC", "CENTDISC/w3", "roc", "read_spread/P2", "memory_spread/P1", "memory_spread/P2",
    "memory_spread/P4G2",
)
#: Row -> the serial row of the same tree it must equal.  At P1 both spread
#: programs weigh and deposit every read as serial does; at P > 1 they
#: change NORM/CHARDISC float reduction order against serial (ROADMAP
#: item 15), so they have no twin yet.
TWINS = {
    **{
        name: "phmm_full"
        for name in ("pool2_warm", "pool2/faulted", "pool2/telemetry", "online/pool2")
    },
    **{
        f"{acc}/w{workers}": acc
        for acc in ("CHARDISC", "CENTDISC", "CENTDISC_WEIGHTED")
        for workers in (2, 3)
    },
    "seed_heavy/w2": "seed_heavy",
    "read_spread/P1": "CHARDISC",
    "memory_spread/P1": "CHARDISC",
}


#: The mapping counters every executor must report as serial does.
COUNTS = ("pipeline.reads", "pipeline.reads_mapped", "pipeline.reads_unmapped", "pipeline.pairs")


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_config(inputs: Path, name: str) -> "dict[str, str]":
    """One configuration on one input set, in the tree ``repro`` comes from."""
    from repro.api import Engine
    from repro.calling.records import write_snp_calls
    from repro.genome.fasta import read_fasta
    from repro.genome.fastq import read_fastq
    from repro.genome.reference import Reference
    from repro.index.seeding import SeederConfig
    from repro.observability import scope
    from repro.pipeline.config import ParallelConfig, PipelineConfig, TelemetryConfig

    spec = MATRIX[name]
    config = PipelineConfig(
        seeder=SeederConfig(**spec.get("seeder", {})),
        parallel=ParallelConfig(fault_spec=spec.get("fault_spec", "")),
        telemetry=TelemetryConfig(**spec.get("telemetry", {})),
        **spec.get("config", {}),
    )
    ref_path = inputs / spec.get("ref", "ref.fa")
    reads = read_fastq(str(inputs / "reads.fq"))
    out = inputs / "calls.tsv"
    acc = None
    with scope() as registry:
        run = spec.get("run", "engine")
        if run == "engine":
            with Engine.from_fasta(str(ref_path), config, workers=spec.get("workers", 1)) as e:
                result = e.run(reads)
            result.write_tsv(str(out))
            acc = result.accumulator
        else:
            ((ref_name, codes),) = read_fasta(str(ref_path)).items()
            reference = Reference(codes, name=ref_name)
            if run == "online":
                from repro.pipeline.online import OnlineGnumap

                third = -(-len(reads) // 3)
                with OnlineGnumap(reference, config, workers=spec["workers"]) as stream:
                    for start in range(0, len(reads), third):
                        stream.feed(reads[start:start + third])
                    write_snp_calls(str(out), stream.current_snps())
                acc = stream.accumulator
            elif run == "roc":
                from types import SimpleNamespace

                from repro.experiments import roc

                wl = SimpleNamespace(reference=reference, reads=reads)
                scored = roc.gnumap_scored_positions(wl, config)
                out.write_text("".join(f"{pos}\t{stat!r}\n" for pos, stat in scored))
            elif run == "paired":
                from repro.pipeline.paired import PairedGnumap
                from repro.simulate.paired import ReadPair

                pairs = [ReadPair(a, b, 0, 0) for a, b in zip(reads[::2], reads[1::2])]
                result = PairedGnumap(reference, config).run(pairs)
                result.write_tsv(str(out))
                acc = result.accumulator
            else:
                from repro.parallel.cluster import Cluster
                from repro.pipeline import parallel_driver

                program = getattr(parallel_driver, f"run_{run}")
                args = (config, None, spec["groups"]) if "groups" in spec else (config,)
                root = Cluster(spec["ranks"]).run(program, reference, reads, *args).results[0]
                # The root returns its calls, or (in older trees) a result
                # object holding them.
                write_snp_calls(str(out), getattr(root, "snps", root))
        counters = {
            k: v
            for k, v in registry.snapshot().counters.items()
            if k.startswith("seed.") or k in ("phmm.pairs", "caller.snps", *COUNTS)
        }
    digest = "-"
    if acc is not None:
        h = hashlib.sha256()
        for key, array in sorted(acc.to_buffers().items()):
            h.update(f"{key}:{array.dtype.str}:{array.shape}".encode())
            h.update(array.tobytes())
        digest = h.hexdigest()
    return {
        "tsv": _sha(out.read_bytes()),
        "acc": digest,
        "counters": _sha(json.dumps(counters, sort_keys=True).encode()),
    }


def _child(inputs: Path, names: "list[str]") -> None:
    json.dump({name: run_config(inputs, name) for name in names}, sys.stdout)


def _run_tree(src: Path, inputs: Path, names: "list[str]") -> "dict[str, dict[str, str]]":
    env = {**os.environ, **CHILD_ENVIRONMENT, "PYTHONPATH": str(src)}
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(inputs), *names],
        env=env, check=True, stdout=subprocess.PIPE, text=True,
    )
    results: "dict[str, dict[str, str]]" = json.loads(proc.stdout)
    return results


def _export(ref: str, into: Path) -> Path:
    """``git archive`` of ``ref`` unpacked into ``into``; returns its ``src``."""
    archive, tree = into / "ref.tar", into / "tree"
    tree.mkdir()
    subprocess.run(["git", "-C", str(REPO), "archive", "-o", str(archive), ref], check=True)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(tree)], check=True)
    return tree / "src"


def _twin_cell(ours: "dict[str, dict[str, str]]", name: str) -> "str | None":
    """``name``'s twin column: ``None`` without a twin run, else ``= twin``
    or the kinds that differ from it."""
    twin = TWINS.get(name)
    if twin not in ours:
        return None
    diff = [
        kind
        for kind in ("tsv", "acc")
        if "-" not in (ours[name][kind], ours[twin][kind])
        and ours[name][kind] != ours[twin][kind]
    ]
    return f"DIFF {'+'.join(diff)}" if diff else f"= {twin}"


def compare(ref: str, seeds: "tuple[int, ...]", names: "list[str]") -> int:
    sys.path.insert(0, str(REPO / "ledger"))
    from workloads import generate

    kinds = ("tsv", "acc", "counters")
    equal = {kind: 0 for kind in (*kinds, "twin")}
    total = {kind: 0 for kind in (*kinds, "twin")}
    width = max(map(len, names))
    with tempfile.TemporaryDirectory(prefix="identity-") as tmp:
        ref_src = _export(ref, Path(tmp))
        print(
            f"{'seed':>6}  {'config':<{width}}"
            + "".join(f"  {k:<17}" for k in kinds)
            + "  twin"
        )
        for seed in seeds:
            inputs = Path(tmp) / f"inputs-{seed}"
            generate(inputs, seed)
            theirs = _run_tree(ref_src, inputs, names)
            ours = _run_tree(REPO / "src", inputs, names)
            for name in names:
                cells = []
                for kind in kinds:
                    a, b = theirs[name][kind], ours[name][kind]
                    if a == "-" and b == "-":
                        cells.append(f"{'-':<17}")
                        continue
                    total[kind] += 1
                    equal[kind] += a == b
                    cells.append(f"= {b[:15]}" if a == b else f"DIFF {a[:6]}/{b[:6]}")
                twin = _twin_cell(ours, name)
                if twin is not None:
                    total["twin"] += 1
                    equal["twin"] += twin.startswith("=")
                cells.append(twin or "-")
                print(f"{seed:>6}  {name:<{width}}" + "".join(f"  {c:<17}" for c in cells))
    print(", ".join(f"{k} {equal[k]}/{total[k]} equal" for k in equal))
    return 0 if all(equal[k] == total[k] for k in ("tsv", "twin")) else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--ref", help="git ref to compare this tree against")
    parser.add_argument(
        "--quick", action="store_true",
        help=f"seeds {QUICK_SEEDS} and configs {', '.join(QUICK)} only",
    )
    parser.add_argument("--child", metavar="INPUTS", help=argparse.SUPPRESS)
    args, names = parser.parse_known_args(argv)
    if args.child:
        _child(Path(args.child), names)
        return 0
    if not args.ref or names:
        parser.error("usage: identity.py --ref REF [--quick]")
    if args.quick:
        return compare(args.ref, QUICK_SEEDS, list(QUICK))
    return compare(args.ref, SEEDS, list(MATRIX))


if __name__ == "__main__":
    raise SystemExit(main())
