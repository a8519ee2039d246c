"""Tests for the command-line interface (simulate -> call -> evaluate)."""

import pytest

from repro.cli import main


class TestSimulateCallEvaluate:
    def test_full_workflow(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        truth = tmp_path / "truth.tsv"
        out = tmp_path / "snps.tsv"

        rc = main([
            "simulate", "--scale", "tiny", "--seed", "5",
            "--reference", str(ref), "--reads", str(reads), "--truth", str(truth),
        ])
        assert rc == 0
        assert ref.exists() and reads.exists() and truth.exists()
        sim_out = capsys.readouterr().out
        assert "reference" in sim_out

        vcf = tmp_path / "calls.vcf"
        report = tmp_path / "report.md"
        rc = main([
            "call", str(ref), str(reads), "-o", str(out),
            "--vcf", str(vcf), "--report", str(report), "--verbose",
        ])
        assert rc == 0
        call_out = capsys.readouterr().out
        assert "SNP calls" in call_out
        assert out.read_text().startswith("pos\t")
        assert vcf.read_text().startswith("##fileformat=VCF")
        assert "## Summary" in report.read_text()

        rc = main(["evaluate", str(out), str(truth)])
        assert rc == 0
        eval_out = capsys.readouterr().out
        assert "precision" in eval_out and "TP" in eval_out

    def test_call_rejects_multi_record_fasta(self, tmp_path, capsys):
        ref = tmp_path / "multi.fa"
        ref.write_text(">a\nACGTACGTACGTACGT\n>b\nACGTACGTACGTACGT\n")
        reads = tmp_path / "r.fq"
        reads.write_text("@r\nACGTACGTACGT\n+\nIIIIIIIIIIII\n")
        rc = main(["call", str(ref), str(reads)])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_map_to_sam(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        sam = tmp_path / "out.sam"
        main([
            "simulate", "--scale", "tiny", "--seed", "9",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(tmp_path / "t.tsv"),
        ])
        capsys.readouterr()
        rc = main(["map", str(ref), str(reads), "-o", str(sam)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "placed" in out
        text = sam.read_text()
        assert text.startswith("@HD")
        assert "\t60\t" in text  # confident unique placements exist

    def test_call_banded_matches_default(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main([
            "simulate", "--scale", "tiny", "--seed", "21",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(tmp_path / "t.tsv"),
        ])
        capsys.readouterr()
        full_out = tmp_path / "full.tsv"
        band_out = tmp_path / "band.tsv"
        assert main(["call", str(ref), str(reads), "-o", str(full_out)]) == 0
        assert main([
            "call", str(ref), str(reads), "-o", str(band_out),
            "--band-mode", "adaptive", "--band-width", "10",
            "--band-tolerance", "1e-4",
        ]) == 0
        capsys.readouterr()
        assert band_out.read_bytes() == full_out.read_bytes()

    def test_band_flags_validated(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        ref.write_text(">a\nACGTACGTACGTACGT\n")
        reads = tmp_path / "r.fq"
        reads.write_text("@r\nACGTACGTACGT\n+\nIIIIIIIIIIII\n")
        rc = main([
            "call", str(ref), str(reads), "-o", str(tmp_path / "o.tsv"),
            "--band-mode", "adaptive", "--band-width", "0",
        ])
        assert rc == 2
        assert "band_w" in capsys.readouterr().err
        with pytest.raises(SystemExit):  # argparse rejects unknown modes
            main(["call", str(ref), str(reads), "--band-mode", "wat"])

    def test_deleted_alignment_and_band_modes_exit_2(self):
        # Neither the global alignment mode nor the fixed band exists.
        for command, flag in (
            ("call", ["--alignment-mode", "global"]),
            ("call", ["--band-mode", "fixed"]),
            ("map", ["--alignment-mode", "global"]),
        ):
            with pytest.raises(SystemExit) as exc:
                main([command, "ref.fa", "reads.fq", *flag])
            assert exc.value.code == 2

    def test_removed_kernel_flags_exit_2(self):
        for command in ("call", "map"):
            for flag in (["--phmm-kernel", "rowsweep"], ["--phmm-dtype", "float64"]):
                with pytest.raises(SystemExit) as exc:
                    main([command, "ref.fa", "reads.fq", *flag])
                assert exc.value.code == 2

    def test_experiments_table2(self, capsys):
        rc = main(["experiments", "table2", "--scale", "tiny"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "CHARDISC" in out and "chrX" in out

    def test_diploid_simulation_flags(self, tmp_path):
        rc = main([
            "simulate", "--scale", "tiny", "--ploidy", "2",
            "--het-fraction", "0.5",
            "--reference", str(tmp_path / "r.fa"),
            "--reads", str(tmp_path / "r.fq"),
            "--truth", str(tmp_path / "t.tsv"),
        ])
        assert rc == 0
        truth = (tmp_path / "t.tsv").read_text()
        assert "het" in truth

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_removed_pool_mode_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["call", "ref.fa", "reads.fq", "--parallel-pool", "per-call"])
        assert exc.value.code == 2

    def test_seeding_flags(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main([
            "simulate", "--scale", "tiny", "--seed", "11",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(tmp_path / "t.tsv"),
        ])
        out = tmp_path / "snps.tsv"
        rc = main([
            "call", str(ref), str(reads), "-o", str(out),
            "--k", "20", "--qgram-filter", "--filter-threshold", "0.6",
        ])
        assert rc == 0
        assert out.exists()

    def test_removed_seed_len_and_map_band_flags_exit_2(self):
        # --seed-len was --k under another name; map never banded anything.
        for command, flag in (
            ("call", ["--seed-len", "20"]),
            ("map", ["--seed-len", "20"]),
            ("map", ["--band-mode", "fixed"]),
            ("map", ["--band-width", "5"]),
            ("map", ["--band-tolerance", "1e-3"]),
        ):
            with pytest.raises(SystemExit) as exc:
                main([command, "ref.fa", "reads.fq", *flag])
            assert exc.value.code == 2


_REF = b">chr\nACGTACGTACGTACGT\n"
_READS = b"@r1\nACGT\n+\nIIII\n"


class TestHostileInput:
    @pytest.mark.parametrize(
        "ref, reads, where",
        [
            (_REF, "@r1\nACÉT\n+\nIIII\n".encode(), "record 'r1': invalid nucleotide 'É' at position 2"),
            (_REF, "@r1\nACGT\n+\nIIéI\n".encode(), "record 'r1': quality character 'é' at position 2"),
            (_REF, b"@r1\nAC\xffT\n+\nIIII\n", "record 'r1': invalid nucleotide '\\udcff' at position 2"),
            (_REF, b"@r1\nACGT\n+\nII\xffI\n", "record 'r1': quality character '\\udcff' at position 2"),
            (_REF, b"@r\xff1\nACGT\n+\nIIII\n", "read name 'r\\udcff1' is not ASCII"),
            (b">chr\nACGTAC\xffTACGT\n", _READS, "record 'chr': invalid nucleotide '\\udcff' at position 6"),
        ],
        ids=["base-non-ascii", "quality-non-ascii", "base-0xff", "quality-0xff", "name-0xff",
             "reference-0xff"],
    )
    def test_non_ascii_input_is_a_typed_error(self, tmp_path, capsys, ref, reads, where):
        """Not a UnicodeEncodeError/UnicodeDecodeError traceback: ``error:``
        naming the record and the position, exit 2."""
        (tmp_path / "ref.fa").write_bytes(ref)
        (tmp_path / "reads.fq").write_bytes(reads)
        rc = main([
            "call", str(tmp_path / "ref.fa"), str(tmp_path / "reads.fq"),
            "-o", str(tmp_path / "snps.tsv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err and "Traceback" not in err

    def test_missing_call_inputs_are_a_typed_error(self, tmp_path, capsys):
        rc = main([
            "call", str(tmp_path / "nope.fa"), str(tmp_path / "nope.fq"),
            "-o", str(tmp_path / "snps.tsv"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and ("nope.fa" in err or "nope.fq" in err)

    _TRUTH = "pos\tref\talt\tgenotype\n5\tA\tC\thom\n"

    @pytest.mark.parametrize(
        "calls, truth, where",
        [
            ("pos\tx\n5\t3\n", None, "missing.tsv"),
            ("pos\tx\n1x\t3\n", _TRUTH, "calls.tsv: line 2: bad pos '1x'"),
            ("pos\tx\n5\t3\n", "pos\tref\talt\tgenotype\nxx\tA\tC\thom\n",
             "truth.tsv: line 2: bad variant row"),
            ("pos\tx\n5\t3\n", "pos\tref\talt\tgenotype\n5\tA\tX\thom\n",
             "truth.tsv: line 2: bad variant row"),
        ],
        ids=["missing-truth", "calls-bad-pos", "truth-bad-pos", "truth-bad-alt"],
    )
    def test_evaluate_bad_input_is_a_typed_error(
        self, tmp_path, capsys, calls, truth, where
    ):
        """``error:`` naming the file (and the line of a bad row), exit 2 —
        not a FileNotFoundError / ValueError traceback."""
        (tmp_path / "calls.tsv").write_text(calls)
        truth_path = tmp_path / ("missing.tsv" if truth is None else "truth.tsv")
        if truth is not None:
            truth_path.write_text(truth)
        rc = main(["evaluate", str(tmp_path / "calls.tsv"), str(truth_path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and where in err

    def test_probabilistic_fault_keys_are_rejected(self, tmp_path, capsys):
        (tmp_path / "ref.fa").write_bytes(_REF)
        (tmp_path / "reads.fq").write_bytes(_READS)
        rc = main([
            "call", str(tmp_path / "ref.fa"), str(tmp_path / "reads.fq"),
            "-o", str(tmp_path / "snps.tsv"), "--fault-spec", "crash:p=0.5,seed=7",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestTelemetryCli:
    def test_top_once_renders_a_frame(self, capsys):
        from repro.observability import MetricsRegistry, TelemetryEndpoint, to_json

        reg = MetricsRegistry()
        reg.inc("pipeline.reads", 123)
        endpoint = TelemetryEndpoint(lambda: to_json(reg.snapshot()))
        url = endpoint.start()
        try:
            rc = main(["top", url, "--once", "--interval", "0.05"])
        finally:
            endpoint.close()
        assert rc == 0
        out = capsys.readouterr().out
        assert "repro top" in out
        assert "reads 123" in out

    def test_top_accepts_host_port_shorthand(self, capsys):
        from repro.observability import MetricsSnapshot, TelemetryEndpoint, to_json

        endpoint = TelemetryEndpoint(lambda: to_json(MetricsSnapshot.empty()))
        endpoint.start()
        try:
            rc = main(["top", f"127.0.0.1:{endpoint.port}", "--once"])
        finally:
            endpoint.close()
        assert rc == 0

    def test_top_malformed_body_exits_2(self, capsys):
        from repro.observability import TelemetryEndpoint

        endpoint = TelemetryEndpoint(lambda: "# TYPE pipeline_reads_total counter\n")
        url = endpoint.start()
        try:
            rc = main(["top", url, "--iterations", "2", "--interval", "0.05"])
        finally:
            endpoint.close()
        assert rc == 2
        err = capsys.readouterr().err
        assert "error" in err and "JSON" in err and "Traceback" not in err

    def test_top_unreachable_endpoint_exits_2(self, capsys):
        rc = main(["top", "http://127.0.0.1:1/metrics", "--once"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_top_portless_endpoint_rejected(self, capsys):
        rc = main(["top", "localhost", "--once"])
        assert rc == 2
        assert "port" in capsys.readouterr().err

    def test_call_with_telemetry_prints_url(self, tmp_path, capsys):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main([
            "simulate", "--scale", "tiny", "--seed", "11",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(tmp_path / "t.tsv"),
        ])
        capsys.readouterr()
        out = tmp_path / "snps.tsv"
        rc = main([
            "call", str(ref), str(reads), "-o", str(out),
            "--workers", "2", "--telemetry",
            "--telemetry-interval", "0.1",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "telemetry: http://127.0.0.1:" in captured.err
        assert "--workers > 1" not in captured.err
        assert out.exists()

    def test_call_with_telemetry_and_one_worker_says_it_stays_empty(
        self, tmp_path, capsys
    ):
        ref = tmp_path / "ref.fa"
        reads = tmp_path / "reads.fq"
        main([
            "simulate", "--scale", "tiny", "--seed", "11",
            "--reference", str(ref), "--reads", str(reads),
            "--truth", str(tmp_path / "t.tsv"),
        ])
        capsys.readouterr()
        rc = main([
            "call", str(ref), str(reads), "-o", str(tmp_path / "snps.tsv"),
            "--telemetry",
        ])
        assert rc == 0
        err = capsys.readouterr().err
        assert "telemetry: http://127.0.0.1:" in err
        assert "--workers > 1" in err
