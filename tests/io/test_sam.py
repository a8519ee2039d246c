"""Tests for SAM output."""

import io

import numpy as np
import pytest

from repro.errors import PipelineError
from repro.experiments.workload import build_workload
from repro.genome.alphabet import decode, reverse_complement
from repro.genome.fastq import Read
from repro.io.sam import _cigar_from_pairs, _mapq, collect_placements, write_sam
from repro.pipeline.config import PipelineConfig
from repro.pipeline.gnumap import GnumapSnp


@pytest.fixture(scope="module")
def setup():
    wl = build_workload(scale="tiny", seed=201)
    pipe = GnumapSnp(wl.reference, PipelineConfig())
    return wl, pipe


class TestCigar:
    def test_perfect_match(self):
        pairs = [(i, i + 3) for i in range(1, 11)]
        assert _cigar_from_pairs(pairs, 10) == "10M"

    def test_soft_clips(self):
        pairs = [(i, i) for i in range(3, 9)]
        assert _cigar_from_pairs(pairs, 10) == "2S6M2S"

    def test_insertion(self):
        # read positions 1..4 then 7..10 matched: i jumps by 3 => 2I
        pairs = [(i, i) for i in range(1, 5)] + [(i, i - 2) for i in range(7, 11)]
        assert _cigar_from_pairs(pairs, 10) == "4M2I4M"

    def test_deletion(self):
        pairs = [(i, i) for i in range(1, 5)] + [(i, i + 2) for i in range(5, 9)]
        assert _cigar_from_pairs(pairs, 8) == "4M2D4M"

    def test_empty(self):
        assert _cigar_from_pairs([], 5) == "5S"


class TestMapq:
    def test_extremes(self):
        assert _mapq(1.0) == 60
        assert _mapq(0.0) == 0

    def test_midpoints(self):
        assert _mapq(0.9) == 10
        assert _mapq(0.99) == 20
        assert _mapq(0.5) == 3


class TestCollectPlacements:
    def test_perfect_reads_place_exactly(self, setup):
        wl, pipe = setup
        ref = wl.reference
        reads = [
            Read("p0", ref.codes[100:162].copy(), np.full(62, 40, dtype=np.uint8)),
            Read(
                "p1",
                reverse_complement(ref.codes[500:562]),
                np.full(62, 40, dtype=np.uint8),
            ),
        ]
        placements = collect_placements(pipe, reads)
        primary = {p.read_name: p for p in placements if p.is_primary}
        assert primary["p0"].pos == 100
        assert primary["p0"].strand == 1
        assert primary["p0"].cigar == "62M"
        assert primary["p1"].pos == 500
        assert primary["p1"].strand == -1
        # unique placements get high posterior weight and mapq
        assert primary["p0"].weight > 0.99

    def test_simulated_reads_mostly_recover_truth(self, setup):
        wl, pipe = setup
        placements = collect_placements(pipe, wl.reads[:150])
        primary = {p.read_name: p for p in placements if p.is_primary}
        by_name = {r.name: r for r in wl.reads[:150]}
        hits = sum(
            1
            for name, p in primary.items()
            if abs(p.pos - by_name[name].true_pos) <= 3
        )
        assert hits >= 0.9 * len(primary)

    def test_secondary_alignments_for_repeats(self):
        from repro.simulate.genome_sim import GenomeSpec, simulate_genome

        ref, repeats = simulate_genome(
            GenomeSpec(length=20_000, n_repeats=1, repeat_length=400,
                       repeat_divergence=0.0),
            seed=9,
        )
        pipe = GnumapSnp(ref, PipelineConfig())
        rep = repeats[0]
        read = Read(
            "rep",
            ref.codes[rep.src_start + 50 : rep.src_start + 112].copy(),
            np.full(62, 40, dtype=np.uint8),
        )
        placements = collect_placements(pipe, [read])
        assert len(placements) == 2
        weights = sorted(p.weight for p in placements)
        assert weights[0] == pytest.approx(weights[1], abs=0.05)  # ~50/50
        primaries = [p for p in placements if p.is_primary]
        assert len(primaries) == 1

    def test_placements_pinned(self, setup):
        """(pos, strand, weight, cigar) of the fixture's first 200 reads, as
        emitted before collect_placements moved onto the shared step B
        core (weights to 6 decimals)."""
        import hashlib

        wl, pipe = setup
        placements = collect_placements(pipe, wl.reads[:200])
        assert len(placements) == 208
        assert sum(not p.is_primary for p in placements) == 8
        assert sum(p.strand == -1 for p in placements) == 101
        rows = "\n".join(
            f"{p.read_name}\t{p.pos}\t{p.strand}\t{p.weight:.6f}\t{p.cigar}"
            for p in placements
        )
        assert hashlib.sha256(rows.encode()).hexdigest() == (
            "fa72a6e5d6ebac1e7dd3884efbf41d46db0f658821e75a2c7a6cee43c6e579b5"
        )

    def test_validation(self, setup):
        _, pipe = setup
        with pytest.raises(PipelineError):
            collect_placements(pipe, [], max_secondary=-1)


class TestWriteSam:
    def test_header_and_fields(self, setup):
        wl, pipe = setup
        placements = collect_placements(pipe, wl.reads[:10])
        buf = io.StringIO()
        n = write_sam(buf, placements, wl.reference.name, len(wl.reference))
        lines = buf.getvalue().splitlines()
        assert lines[0].startswith("@HD")
        assert f"LN:{len(wl.reference)}" in lines[1]
        data = [l for l in lines if not l.startswith("@")]
        assert len(data) == n == len(placements)
        for line in data:
            fields = line.split("\t")
            assert len(fields) == 12
            flag, pos, mapq = int(fields[1]), int(fields[3]), int(fields[4])
            assert pos >= 1
            assert 0 <= mapq <= 60
            assert fields[5] != "*"
            assert fields[10] != "*"
            assert len(fields[9]) == len(fields[10])

    def test_reverse_strand_flag_and_seq(self, setup):
        wl, pipe = setup
        ref = wl.reference
        read = Read(
            "rc",
            reverse_complement(ref.codes[800:862]),
            np.full(62, 40, dtype=np.uint8),
        )
        placements = collect_placements(pipe, [read])
        buf = io.StringIO()
        write_sam(buf, placements, ref.name, len(ref))
        line = [l for l in buf.getvalue().splitlines() if not l.startswith("@")][0]
        fields = line.split("\t")
        assert int(fields[1]) & 0x10
        # SAM stores the reference-forward sequence
        assert fields[9] == decode(ref.codes[800:862])

    def test_validation(self):
        with pytest.raises(PipelineError):
            write_sam(io.StringIO(), [], "ref", 0)
