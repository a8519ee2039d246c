"""Tests for FASTQ reads and I/O, including truncation failure injection."""

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FastqError
from repro.genome.alphabet import encode
from repro.genome.fastq import (
    MAX_QUALITY,
    Read,
    read_fastq,
    write_fastq,
)


def fastq_string(reads):
    buf = io.StringIO()
    write_fastq(buf, reads)
    return buf.getvalue()


def mk_read(name="r", seq="ACGT", quals=(30, 30, 30, 30)):
    return Read(name=name, codes=encode(seq), quals=np.array(quals, dtype=np.uint8))


class TestRead:
    def test_lengths_must_match(self):
        with pytest.raises(FastqError, match="4 bases but 3"):
            Read("r", encode("ACGT"), np.array([1, 2, 3], dtype=np.uint8))

    def test_empty_rejected(self):
        with pytest.raises(FastqError, match="empty"):
            Read("r", encode(""), np.array([], dtype=np.uint8))

    def test_quality_ceiling(self):
        with pytest.raises(FastqError, match="exceeds"):
            mk_read(quals=(10, 10, 10, MAX_QUALITY + 1))

    def test_error_probabilities(self):
        r = mk_read(quals=(10, 20, 30, 40))
        assert r.error_probabilities() == pytest.approx([0.1, 0.01, 0.001, 0.0001])

    def test_quality_string(self):
        assert mk_read(quals=(0, 1, 2, 3)).quality_string == "!\"#$"

    def test_len_and_sequence(self):
        r = mk_read(seq="ACGT")
        assert len(r) == 4
        assert r.sequence == "ACGT"


class TestFastqIO:
    def test_basic_parse(self):
        reads = read_fastq(io.StringIO("@r1\nACGT\n+\nIIII\n"))
        assert len(reads) == 1
        assert reads[0].sequence == "ACGT"
        assert (reads[0].quals == 40).all()

    def test_length_mismatch_rejected(self):
        with pytest.raises(FastqError, match="bases vs"):
            read_fastq(io.StringIO("@r\nACGT\n+\nIII\n"))

    def test_missing_plus_rejected(self):
        with pytest.raises(FastqError, match="separator"):
            read_fastq(io.StringIO("@r\nACGT\nIIII\nIIII\n"))

    def test_truncated_record_rejected(self):
        with pytest.raises(FastqError, match="truncated"):
            read_fastq(io.StringIO("@r\nACGT\n"))

    def test_bad_header_rejected(self):
        with pytest.raises(FastqError, match="expected '@'"):
            read_fastq(io.StringIO("r\nACGT\n+\nIIII\n"))

    def test_quality_below_offset_rejected(self):
        # ' ' (space) is below the Phred+33 offset
        with pytest.raises(FastqError, match="outside"):
            read_fastq(io.StringIO("@r\nAC\n+\n  \n"))

    def test_crlf_line_endings(self):
        """As FASTA does: a ``\r`` is a line ending, not a Q-20 quality."""
        reads = read_fastq(io.StringIO("@r1\r\nACGT\r\n+\r\nIIII\r\n"))
        assert [r.name for r in reads] == ["r1"]
        assert reads[0].sequence == "ACGT"
        assert (reads[0].quals == 40).all()

    def test_empty_stream_ok(self):
        assert read_fastq(io.StringIO("")) == []

    def test_file_round_trip(self, tmp_path):
        reads = [mk_read("a"), mk_read("b", "TTTT", (2, 3, 4, 5))]
        path = tmp_path / "reads.fq"
        write_fastq(path, reads)
        back = read_fastq(path)
        assert [r.name for r in back] == ["a", "b"]
        assert (back[1].quals == np.array([2, 3, 4, 5])).all()

    @given(
        st.lists(
            st.tuples(
                st.text(alphabet="ACGT", min_size=1, max_size=80),
                st.integers(min_value=0, max_value=MAX_QUALITY),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_round_trip_property(self, specs):
        reads = [
            Read(
                name=f"r{i}",
                codes=encode(seq),
                quals=np.full(len(seq), q, dtype=np.uint8),
            )
            for i, (seq, q) in enumerate(specs)
        ]
        back = read_fastq(io.StringIO(fastq_string(reads)))
        assert len(back) == len(reads)
        for orig, rt in zip(reads, back):
            assert rt.name == orig.name
            assert (rt.codes == orig.codes).all()
            assert (rt.quals == orig.quals).all()
