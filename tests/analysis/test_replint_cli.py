"""CLI, configuration, and whole-tree tests for replint.

The final test in this module is the enforcement hook: the repository's own
``src`` tree must lint clean, mirroring what CI runs.
"""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from replint import ReplintConfig, lint_file, lint_paths, load_config
from replint.cli import main
from replint.findings import Finding, render_sarif, render_text
from replint.rules import ALL_RULES, KNOWN_RULE_IDS, RULES_BY_ID

REPO_ROOT = Path(__file__).resolve().parents[2]

TRIGGER = textwrap.dedent(
    """
    import numpy as np

    def f():
        return np.random.normal(size=3)
    """
)

CLEAN = textwrap.dedent(
    """
    def f(rng):
        return rng.normal(size=3)
    """
)


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        assert main([str(tmp_path)]) == 0
        assert capsys.readouterr().out == ""

    def test_findings_exit_one_with_report(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(TRIGGER)
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPL201" in out
        assert "1 finding(s) in 1 file(s)" in out

    def test_select_limits_rules(self, tmp_path):
        (tmp_path / "mod.py").write_text(TRIGGER)
        assert main([str(tmp_path), "--select", "RPL401"]) == 0
        assert main([str(tmp_path), "--select", "RPL201"]) == 1

    def test_unknown_select_is_usage_error(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        assert main([str(tmp_path), "--select", "RPL999"]) == 2
        assert "unknown rule id" in capsys.readouterr().err

    def test_no_files_is_usage_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "empty")]) == 2
        assert "no Python files" in capsys.readouterr().err

    def test_list_rules_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out
            assert rule.rule_name in out

    def test_sarif_format(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(TRIGGER)
        assert main([str(tmp_path), "--format", "sarif"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        assert run["tool"]["driver"]["name"] == "replint"
        assert [r["ruleId"] for r in run["results"]] == ["RPL201"]
        region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
        assert region["startColumn"] >= 1  # SARIF columns are 1-based

    def test_sarif_rule_catalogue_covers_known_ids(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(CLEAN)
        assert main([str(tmp_path), "--format", "sarif"]) == 0
        doc = json.loads(capsys.readouterr().out)
        listed = {r["id"] for r in doc["runs"][0]["tool"]["driver"]["rules"]}
        assert KNOWN_RULE_IDS <= listed

    def test_audit_reports_stale_suppression(self, tmp_path, capsys):
        (tmp_path / "mod.py").write_text(
            "def f(x):\n    return x  # replint: disable=RPL201\n"
        )
        assert main([str(tmp_path)]) == 0
        assert main([str(tmp_path), "--audit-suppressions"]) == 1
        out = capsys.readouterr().out
        assert "RPL900" in out
        assert "matched no finding" in out

    def test_audit_quiet_when_suppression_used(self, tmp_path):
        (tmp_path / "mod.py").write_text(
            "import numpy as np\n\n"
            "def f():\n"
            "    return np.random.normal()  # replint: disable=RPL201\n"
        )
        assert main([str(tmp_path), "--audit-suppressions"]) == 0

    def test_unreadable_file_reported_not_fatal(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text(CLEAN)
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe\x00broken")
        assert main([str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "RPL000" in out
        assert "cannot read file" in out
        assert "bad.py" in out

    def test_module_entrypoint(self, tmp_path):
        (tmp_path / "mod.py").write_text(TRIGGER)
        proc = subprocess.run(
            [sys.executable, "-m", "replint", str(tmp_path)],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(REPO_ROOT / "tools"), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 1
        assert "RPL201" in proc.stdout


class TestConfig:
    def test_defaults_when_missing(self, tmp_path):
        config = load_config(tmp_path / "absent.toml")
        assert config == ReplintConfig()

    def test_loads_table(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(
            '[tool.replint]\nworker-modules = ["*/w/*.py"]\nselect = ["RPL401"]\n'
        )
        config = load_config(pyproject)
        assert config.worker_modules == ["*/w/*.py"]
        assert config.rule_selected("RPL401")
        assert not config.rule_selected("RPL201")

    def test_unknown_key_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.replint]\nworker_modlues = ["x"]\n')
        with pytest.raises(ValueError, match="unknown"):
            load_config(pyproject)

    def test_key_of_a_deleted_rule_rejected(self, tmp_path):
        # Spelled in two parts so the tree stays grep-clean of deleted keys.
        stale = "dispatch" + "-targets"
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text(f'[tool.replint]\n{stale} = ["Pool"]\n')
        with pytest.raises(ValueError, match=f"unknown.*{stale}"):
            load_config(pyproject)

    def test_non_list_value_rejected(self, tmp_path):
        pyproject = tmp_path / "pyproject.toml"
        pyproject.write_text('[tool.replint]\nexclude = "src"\n')
        with pytest.raises(ValueError, match="list of strings"):
            load_config(pyproject)

    def test_repo_pyproject_parses(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        assert config.is_worker_module("src/repro/parallel/comm.py")
        assert config.is_rng_sanctioned("src/repro/util/rng.py")

    def test_exclude(self, tmp_path):
        (tmp_path / "mod.py").write_text(TRIGGER)
        config = ReplintConfig(exclude=["*/mod.py"])
        assert lint_paths([tmp_path], config) == []


class TestRenderers:
    FINDING = Finding(
        path="src/x.py", line=3, col=4, rule_id="RPL201",
        rule_name="unseeded-rng", message="msg",
    )

    def test_text_line_format(self):
        assert self.FINDING.text() == "src/x.py:3:4: RPL201 [unseeded-rng] msg"

    def test_render_text_empty(self):
        assert render_text([]) == ""

    def test_render_sarif_location(self):
        doc = json.loads(render_sarif([self.FINDING], version="2.0.0"))
        result = doc["runs"][0]["results"][0]
        loc = result["locations"][0]["physicalLocation"]
        assert loc["artifactLocation"]["uri"] == "src/x.py"
        assert loc["region"] == {"startLine": 3, "startColumn": 5}
        assert "unseeded-rng" in result["message"]["text"]

    def test_render_sarif_empty_is_valid(self):
        doc = json.loads(render_sarif([], version="2.0.0"))
        assert doc["runs"][0]["results"] == []


class TestUnreadableFiles:
    def test_lint_file_unreadable(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_bytes(b"\xff\xfe\x00broken")
        findings = lint_file(bad)
        assert [f.rule_id for f in findings] == ["RPL000"]
        assert "cannot read file" in findings[0].message

    def test_lint_paths_keeps_going_past_unreadable(self, tmp_path):
        (tmp_path / "bad.py").write_bytes(b"\xff\xfe\x00broken")
        (tmp_path / "mod.py").write_text(TRIGGER)
        findings = lint_paths([tmp_path])
        assert sorted(f.rule_id for f in findings) == ["RPL000", "RPL201"]


class TestRegistry:
    def test_at_least_five_rules(self):
        assert len(RULES_BY_ID) >= 5

    def test_ids_unique_and_documented(self):
        assert len({r.rule_id for r in ALL_RULES}) == len(ALL_RULES)
        for rule in ALL_RULES:
            assert type(rule).__doc__
            assert rule.rule_id.startswith("RPL")


class TestRepositoryTree:
    def test_src_lints_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config)
        assert findings == [], "\n" + "\n".join(f.text() for f in findings)

    def test_tools_lint_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "tools"], config)
        assert findings == [], "\n" + "\n".join(f.text() for f in findings)

    def test_benchmarks_lint_clean(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "benchmarks"], config)
        assert findings == [], "\n" + "\n".join(f.text() for f in findings)

    def test_src_has_no_stale_suppressions(self):
        config = load_config(REPO_ROOT / "pyproject.toml")
        findings = lint_paths([REPO_ROOT / "src"], config, audit=True)
        assert findings == [], "\n" + "\n".join(f.text() for f in findings)
