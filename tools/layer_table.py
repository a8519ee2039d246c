"""Where a ledger repetition's mapping time goes, from the engine's own spans.

    PYTHONPATH=src python tools/layer_table.py              # seed 4242, best of 5
    PYTHONPATH=src python tools/layer_table.py --seed 2012 --repeats 9

Writes the ledger's inputs for ``--seed`` (``ledger/workloads.py``) into a
temporary directory, builds each of the four ledger workloads' engines as
``ledger/child.py`` defines them and, in the ledger's pinned child
environment (``ledger/run.py``; the script re-executes itself into it),
runs one untimed warm-up plus ``--repeats`` timed ``Engine.run`` calls.
For the fastest call it prints
one Markdown table: every span under the mapping span (``map_reads``; on
``pool2_warm`` the workers' ``map_parallel/map_reads``, CPU seconds summed
over the two workers) in milliseconds with its share of its parent, and for
each parent the share its children leave uncovered.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

REPO = Path(__file__).resolve().parents[1]
WORKLOADS = ("phmm_full", "seed_heavy", "fast_chardisc", "pool2_warm")


def best_metrics(directory: Path, workload: str, repeats: int) -> Any:
    """The metrics of the fastest of ``repeats`` warm runs of ``workload``."""
    from child import definition

    from repro.api import Engine
    from repro.genome.fastq import read_fastq

    config, reference, workers = definition(workload)
    reads = read_fastq(str(directory / "reads.fq"))
    best = (float("inf"), None)
    with Engine.from_fasta(str(directory / reference), config, workers=workers) as engine:
        engine.run(reads)
        for _ in range(repeats):
            started = time.perf_counter()
            result = engine.run(reads)
            best = min(best, (time.perf_counter() - started, result.metrics), key=lambda b: b[0])
    return best[1]


def flatten(node: dict, path: "tuple[str, ...]", out: "dict[tuple[str, ...], dict]") -> None:
    """``node`` and every span under it, keyed by path below it, parents first."""
    out[path] = node
    for name, child in node["children"].items():
        flatten(child, path + (name,), out)


def table(metrics: "dict[str, Any]") -> str:
    """The Markdown table: ms (share of parent), and each parent's uncovered share."""
    rows: "dict[str, dict[tuple[str, ...], dict]]" = {}
    for name, snapshot in metrics.items():
        pooled = "map_parallel" in snapshot.spans
        root = snapshot.span_node("map_parallel/map_reads" if pooled else "map_reads")
        flatten(root, (), rows.setdefault(name, {}))
    lines = [
        "| span | " + " | ".join(f"`{name}`" for name in metrics) + " |",
        "|---" * (len(metrics) + 1) + "|",
    ]
    for path in dict.fromkeys(p for name in metrics for p in rows[name]):
        label = "/".join(path) or "map_reads"
        cells, uncovered = [], []
        for name in metrics:
            node, parent = rows[name].get(path), rows[name].get(path[:-1])
            if node is None:
                cells.append("-")
                uncovered.append("-")
                continue
            ms = f"{1e3 * node['seconds']:.1f}"
            cells.append(f"{ms} ({node['seconds'] / parent['seconds']:.1%})" if path else ms)
            covered = sum(child["seconds"] for child in node["children"].values())
            uncovered.append(f"{1 - covered / node['seconds']:.1%}" if covered else "-")
        indent = "  " * max(len(path) - 1, 0)
        lines.append(f"| {indent}`{label}` | " + " | ".join(cells) + " |")
        if set(uncovered) != {"-"}:
            lines.append(f"| {indent}  ↳ uncovered | " + " | ".join(uncovered) + " |")
    return "\n".join(lines)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=4242)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(REPO / "ledger"))
    from run import CHILD_ENVIRONMENT
    from workloads import generate

    if any(os.environ.get(k) != v for k, v in CHILD_ENVIRONMENT.items()):
        # The allocator settings only take effect at process start.
        os.execve(sys.executable, [sys.executable, *sys.argv], {**os.environ, **CHILD_ENVIRONMENT})

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        generate(directory, args.seed)
        metrics = {name: best_metrics(directory, name, args.repeats) for name in WORKLOADS}
    print(table(metrics))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
