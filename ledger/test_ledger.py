"""Drives the ledger end to end on a small input set.

Run with ``pytest ledger -q`` from the root of the checkout.  It is outside
the repo's tier-1 ``testpaths`` on purpose: it tests the benchmark, not the
program, and spends most of a minute spawning the eight child processes
the real command spawns.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import Spec, generate  # noqa: E402

SMALL = Spec(
    target_len=2_000,
    n_snps=12,
    coverage=6.2,  # 200 reads
    target_repeats=1,
    decoy_len=40_000,
    decoy_repeats=2,
)
SEED = 2012


def test_same_seed_same_files(tmp_path: Path) -> None:
    a = generate(tmp_path / "a", SEED, SMALL)
    b = generate(tmp_path / "b", SEED, SMALL)
    c = generate(tmp_path / "c", SEED + 1, SMALL)
    assert a.n_reads == 200
    for name in ("ref.fa", "ref_decoy.fa", "reads.fq", "truth.tsv", "origins.tsv"):
        assert (a.directory / name).read_bytes() == (b.directory / name).read_bytes()
    assert a.reads.read_bytes() != c.reads.read_bytes()
    # The decoy reference starts with the target, so truth positions hold.
    target = "".join(a.ref.read_text().split("\n")[1:])
    decoy = "".join(a.ref_decoy.read_text().split("\n")[1:])
    assert decoy.startswith(target) and len(decoy) == len(target) + SMALL.decoy_len


def test_run_replay_compare(tmp_path: Path, capsys) -> None:
    out = tmp_path / "a.json"
    assert run.run_all(SEED, 0.5, out, SMALL) == 0
    printed = capsys.readouterr().out
    document = json.loads(out.read_text())
    bench = run.load_benchmark()
    assert set(document["environment"]) == {"nproc", "python", "numpy", "scipy", "commit"}
    assert list(document["workloads"]) == [w["name"] for w in bench["workloads"]]
    for name, entry in document["workloads"].items():
        assert entry["failed"] == 0, entry["failures"]
        assert set(entry["end_to_end"]) == {m["name"] for m in bench["end_to_end"]}
        assert set(entry["per_layer"]) <= {m["name"] for m in bench["per_layer"]}
        assert all(v > 0 for v in entry["end_to_end"].values())
        layers = entry["per_layer"]
        # The replay is only accepted bit-equal to the engine, so these hold.
        assert layers["pipeline.unattributed_share"] < 0.25
        assert layers["index.seed_recall"] > 0.9
        assert ("parallel.speedup" in layers) == (name == "pool2_warm")
        assert ("phmm.kernel_gap" in layers) == (name in ("phmm_full", "pool2_warm"))
        assert ("observability.trace_events" in layers) == (name != "pool2_warm")
        assert json.loads((tmp_path / f"a.spans.{name}.json").read_text())["replay"]
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert metric["name"] in printed
    assert document["workloads"]["seed_heavy"]["per_layer"]["index.filter_pass_rate"] < 1

    assert run.compare(out, out) == 0
    slower = copy.deepcopy(document)
    slower["workloads"]["seed_heavy"]["end_to_end"]["reads_per_s"] *= 0.5
    worse = tmp_path / "b.json"
    worse.write_text(json.dumps(slower))
    assert run.compare(out, worse) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert run.compare(worse, out) == 0  # an improvement is not a regression


def test_driver_result_shape() -> None:
    declared = [{"name": "x_s", "unit": "s"}, {"name": "y", "unit": "count"}]
    document = {"metrics": {"x_s": 1.5}, "attempted": 4, "failed": 0}
    assert run.driver_result(document, declared) == {
        "correct": True,
        "attempted": 4,
        "failed": 0,
        "metrics": {
            "x_s": {"value": 1.5, "unit": "s"},
            "y": {"value": 0.0, "unit": "count"},
        },
    }
