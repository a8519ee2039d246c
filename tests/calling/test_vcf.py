"""Tests for VCF output."""

import io

from repro.calling.records import BaseCall, SNPCall
from repro.calling.vcf import write_vcf
from repro.genome.alphabet import A, C, G, GAP, T


def mk_snp(pos, ref, top, second=None, het=False, pvalue=1e-6, depth=12.0):
    call = BaseCall(
        pos=pos,
        depth=depth,
        top_channel=top,
        second_channel=second if second is not None else ref,
        stat=25.0,
        pvalue=pvalue,
        significant=True,
        heterozygous=het,
    )
    return SNPCall(pos=pos, ref_base=ref, call=call)


class TestWriteVcf:
    def test_basic_record(self):
        buf = io.StringIO()
        written, skipped = write_vcf(buf, [mk_snp(4, A, G)], contig="chr1")
        assert (written, skipped) == (1, 0)
        text = buf.getvalue()
        assert text.startswith("##fileformat=VCFv4.2")
        data = [l for l in text.splitlines() if not l.startswith("#")]
        fields = data[0].split("\t")
        assert fields[0] == "chr1"
        assert fields[1] == "5"  # 1-based
        assert fields[3] == "A" and fields[4] == "G"
        assert fields[9] == "1/1"

    def test_het_with_ref_is_0_1(self):
        buf = io.StringIO()
        write_vcf(buf, [mk_snp(2, A, A, second=C, het=True)])
        line = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][0]
        fields = line.split("\t")
        assert fields[4] == "C"
        assert fields[9] == "0/1"

    def test_het_two_alts_is_1_2(self):
        buf = io.StringIO()
        write_vcf(buf, [mk_snp(2, A, G, second=T, het=True)])
        line = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][0]
        fields = line.split("\t")
        assert set(fields[4].split(",")) == {"G", "T"}
        assert fields[9] == "1/2"

    def test_gap_calls_skipped(self):
        buf = io.StringIO()
        written, skipped = write_vcf(buf, [mk_snp(2, A, GAP)])
        assert (written, skipped) == (0, 1)

    def test_records_sorted(self):
        buf = io.StringIO()
        write_vcf(buf, [mk_snp(9, A, G), mk_snp(2, C, T)])
        data = [l for l in buf.getvalue().splitlines() if not l.startswith("#")]
        assert [int(l.split("\t")[1]) for l in data] == [3, 10]

    def test_zero_pvalue_capped(self):
        buf = io.StringIO()
        write_vcf(buf, [mk_snp(1, A, G, pvalue=0.0)])
        line = [l for l in buf.getvalue().splitlines() if not l.startswith("#")][0]
        assert float(line.split("\t")[5]) == 5000.0


    def test_golden_text(self):
        """The whole document, byte for byte: 1-based POS, hom 1/1, het 0/1
        and 1/2, the QUAL cap at p == 0, and a gap call skipped."""
        snps = [
            mk_snp(6, A, G, second=T, het=True),
            mk_snp(4, A, G),
            mk_snp(8, A, GAP),
            mk_snp(2, A, A, second=C, het=True),
            mk_snp(0, G, C, pvalue=0.0),
        ]
        buf = io.StringIO()
        assert write_vcf(buf, snps, contig="chr1") == (4, 1)
        assert buf.getvalue() == GOLDEN_VCF

    def test_pipeline_vcf_end_to_end(self, tmp_path):
        from repro import PipelineConfig, build_workload
        from repro.pipeline.gnumap import GnumapSnp

        wl = build_workload(scale="tiny", seed=71)
        result = GnumapSnp(wl.reference, PipelineConfig()).run(wl.reads)
        path = tmp_path / "calls.vcf"
        written, _ = write_vcf(path, result.snps, contig=wl.reference.name)
        data = [line for line in path.read_text().splitlines() if line[0] != "#"]
        assert written == len(data)
        called = {int(line.split("\t")[1]) - 1 for line in data}
        assert called <= set(range(len(wl.reference)))
        assert len(called & set(wl.catalog.positions.tolist())) >= 1


GOLDEN_VCF = (
    "##fileformat=VCFv4.2\n"
    "##source=repro-gnumap-snp\n"
    '##INFO=<ID=DP,Number=1,Type=Float,Description="Accumulated evidence depth">\n'
    '##INFO=<ID=LRT,Number=1,Type=Float,Description="-2 log lambda statistic">\n'
    '##FORMAT=<ID=GT,Number=1,Type=String,Description="Genotype">\n'
    "##contig=<ID=chr1>\n"
    "#CHROM\tPOS\tID\tREF\tALT\tQUAL\tFILTER\tINFO\tFORMAT\tsample\n"
    "chr1\t1\t.\tG\tC\t5000.00\tPASS\tDP=12.00;LRT=25.0000\tGT\t1/1\n"
    "chr1\t3\t.\tA\tC\t60.00\tPASS\tDP=12.00;LRT=25.0000\tGT\t0/1\n"
    "chr1\t5\t.\tA\tG\t60.00\tPASS\tDP=12.00;LRT=25.0000\tGT\t1/1\n"
    "chr1\t7\t.\tA\tG,T\t60.00\tPASS\tDP=12.00;LRT=25.0000\tGT\t1/2\n"
)
