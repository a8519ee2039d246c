"""Tests for FASTA I/O."""

import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import FastaError
from repro.genome.alphabet import encode
from repro.genome.fasta import iter_fasta, read_fasta, write_fasta


def fasta_string(records, width=70):
    buf = io.StringIO()
    write_fasta(buf, records, width=width)
    return buf.getvalue()


def roundtrip(records, width=70):
    return read_fasta(io.StringIO(fasta_string(records, width=width)))


class TestReadFasta:
    def test_basic(self):
        recs = read_fasta(io.StringIO(">r1\nACGT\n>r2\nTTNN\nAC\n"))
        assert list(recs) == ["r1", "r2"]
        assert recs["r2"].tolist() == encode("TTNNAC").tolist()

    def test_header_description_stripped(self):
        recs = read_fasta(io.StringIO(">chr1 homo sapiens\nAC\n"))
        assert list(recs) == ["chr1"]

    def test_blank_lines_skipped(self):
        recs = read_fasta(io.StringIO(">a\nAC\n\nGT\n"))
        assert recs["a"].size == 4

    def test_sequence_before_header_rejected(self):
        with pytest.raises(FastaError, match="before any header"):
            read_fasta(io.StringIO("ACGT\n"))

    def test_empty_record_rejected(self):
        with pytest.raises(FastaError, match="no sequence"):
            read_fasta(io.StringIO(">a\n>b\nAC\n"))

    def test_empty_header_rejected(self):
        with pytest.raises(FastaError, match="empty FASTA header"):
            read_fasta(io.StringIO(">\nAC\n"))

    def test_duplicate_names_rejected(self):
        with pytest.raises(FastaError, match="duplicate"):
            read_fasta(io.StringIO(">a\nAC\n>a\nGT\n"))

    def test_empty_input_rejected(self):
        with pytest.raises(FastaError, match="empty FASTA"):
            list(iter_fasta(io.StringIO("")))

    def test_crlf_tolerated(self):
        recs = read_fasta(io.StringIO(">a\r\nACGT\r\n"))
        assert recs["a"].size == 4


class TestWriteFasta:
    def test_wrapping(self):
        text = fasta_string({"a": encode("A" * 25)}, width=10)
        lines = text.splitlines()
        assert lines[1:] == ["A" * 10, "A" * 10, "A" * 5]

    def test_bad_width_rejected(self):
        with pytest.raises(FastaError):
            fasta_string({"a": encode("AC")}, width=0)

    def test_whitespace_name_rejected(self):
        with pytest.raises(FastaError):
            fasta_string({"a b": encode("AC")})

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "x.fa"
        records = {"chr": encode("ACGTNACGT")}
        write_fasta(path, records)
        back = read_fasta(path)
        assert (back["chr"] == records["chr"]).all()

    @given(
        st.dictionaries(
            st.text(alphabet="abcXYZ019_", min_size=1, max_size=8),
            st.text(alphabet="ACGTN", min_size=1, max_size=120).map(encode),
            min_size=1,
            max_size=4,
        ),
        st.integers(min_value=1, max_value=90),
    )
    def test_round_trip_property(self, records, width):
        back = roundtrip(records, width=width)
        assert set(back) == set(records)
        for name in records:
            assert (back[name] == records[name]).all()
