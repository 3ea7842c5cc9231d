"""CLI surface: exit codes, text and JSON output, repro-bench wiring."""

from __future__ import annotations

import json
from pathlib import Path

from repro.cli import main as bench_main
from repro.lint.cli import main as lint_main
from repro.lint.findings import JSON_VERSION

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, argv):
    code = lint_main(argv)
    return code, capsys.readouterr().out


class TestExitCodes:
    def test_clean_file_exits_zero(self, capsys):
        code, out = run(capsys, [str(FIXTURES / "r8_good.py")])
        assert code == 0
        assert "clean: 0 findings in 1 file(s)" in out

    def test_findings_exit_one(self, capsys):
        code, out = run(capsys, [str(FIXTURES / "r8_bad.py")])
        assert code == 1
        assert "R8" in out and "r8_bad.py" in out
        assert "finding(s)" in out.splitlines()[-1]

    def test_list_rules(self, capsys):
        code, out = run(capsys, ["--list-rules"])
        assert code == 0
        for rule in ("R0", "R1", "R2", "R3", "R4", "R5", "R7", "R8"):
            assert rule in out


class TestJsonSchema:
    def test_schema_fields(self, capsys):
        code, out = run(
            capsys, [str(FIXTURES / "r8_bad.py"), "--format", "json"]
        )
        assert code == 1
        doc = json.loads(out)
        assert doc["version"] == JSON_VERSION
        assert doc["checked_files"] == 1
        assert doc["finding_count"] == len(doc["findings"]) > 0
        assert doc["counts"] == {"R8": doc["finding_count"]}
        first = doc["findings"][0]
        assert set(first) == {"path", "line", "col", "rule", "message"}

    def test_clean_json(self, capsys):
        code, out = run(
            capsys, [str(FIXTURES / "r8_good.py"), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["finding_count"] == 0 and doc["findings"] == []


class TestSelect:
    def test_select_limits_rules(self, capsys):
        bad = str(FIXTURES / "r1_bad.py")
        code, out = run(capsys, [bad, "--select", "R8", "--format", "json"])
        assert code == 0  # r1_bad has no R8 findings
        assert json.loads(out)["finding_count"] == 0


class TestBenchSubcommand:
    def test_repro_bench_lint(self, capsys):
        code = bench_main(["lint", str(FIXTURES / "r8_good.py")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_repro_bench_lint_failing(self, capsys):
        code = bench_main(["lint", str(FIXTURES / "r8_bad.py")])
        assert code == 1
