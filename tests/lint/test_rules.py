"""Per-rule corpus tests: every rule fires on its bad fixture and stays
silent on its good twin, plus suppression-directive semantics (R0)."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint import LintConfig, lint_paths, lint_source, rule_catalogue

FIXTURES = Path(__file__).parent / "fixtures"

#: Fixture files live outside src/, so "fixtures" plays the library-path
#: role for the rules gated to library code (R4, R7).
CONFIG = LintConfig(library_part="fixtures")


def rules_in(path: Path, select: "str | None" = None) -> set:
    config = LintConfig(
        library_part="fixtures",
        select=None if select is None else frozenset({select}),
    )
    findings, checked = lint_paths([path], config)
    assert checked == 1
    return {f.rule for f in findings}


class TestRuleCorpus:
    @pytest.mark.parametrize(
        "rule", ["R1", "R2", "R3", "R4", "R7", "R8", "R10"]
    )
    def test_fires_on_bad_and_not_on_good(self, rule):
        bad = FIXTURES / f"{rule.lower()}_bad.py"
        good = FIXTURES / f"{rule.lower()}_good.py"
        assert rules_in(bad, rule) == {rule}, f"{rule} missed its bad corpus"
        assert rules_in(good, rule) == set(), f"{rule} false-positive on good"

    def test_good_corpus_is_fully_clean(self):
        # Not just rule-by-rule: the good files pass the *whole* catalogue.
        for good in sorted(FIXTURES.glob("*_good.py")):
            findings, _ = lint_paths([good], CONFIG)
            assert findings == [], f"{good.name}: {findings}"

    def test_finding_carries_location_and_code(self):
        findings, _ = lint_paths([FIXTURES / "r8_bad.py"], CONFIG)
        assert len(findings) == 4  # [], {}, set(), list()
        first = findings[0]
        assert first.rule == "R8"
        assert first.path.endswith("r8_bad.py")
        assert first.line > 0 and first.col > 0
        assert "append_to" in first.message

    def test_catalogue_covers_every_shipped_rule(self):
        codes = {code for code, _ in rule_catalogue()}
        assert {
            "R0", "R1", "R2", "R3", "R4", "R5", "R7", "R8", "R9", "R10",
        } <= codes
        assert "R6" not in codes  # retired; the ID is never reused


class TestR1Details:
    def test_from_import_time_alias(self):
        src = "from time import time\n\ndef f():\n    return time()\n"
        assert any(f.rule == "R1" for f in lint_source(src))

    def test_monotonic_is_clean(self):
        src = "import time\n\ndef f():\n    return time.monotonic()\n"
        assert lint_source(src) == []

    def test_membership_in_set_is_clean(self):
        src = "def f(xs):\n    return [x for x in xs if x in {1, 2}]\n"
        assert lint_source(src) == []


class TestR2Details:
    def test_rng_module_itself_is_exempt(self):
        src = "import numpy as np\n\ndef make(seed):\n    return np.random.default_rng(seed)\n"
        config = LintConfig(library_part="repro")
        assert lint_source(src, path="src/repro/rng.py", config=config) == []
        hits = lint_source(src, path="src/repro/other.py", config=config)
        assert {f.rule for f in hits} == {"R2"}


class TestR10Details:
    SRC = "import os\n\ndef publish(tmp, final):\n    os.replace(tmp, final)\n"

    def test_repro_io_modules_are_exempt(self):
        config = LintConfig(library_part="repro")
        clean = lint_source(
            self.SRC, path="src/repro/io/checkpoint.py", config=config
        )
        assert clean == []
        hits = lint_source(
            self.SRC, path="src/repro/core/census.py", config=config
        )
        assert {f.rule for f in hits} == {"R10"}

    def test_non_library_code_is_exempt(self):
        config = LintConfig(library_part="repro")
        assert lint_source(
            self.SRC, path="scripts/helper.py", config=config
        ) == []

    def test_from_import_alias_is_caught(self):
        src = (
            "from os import fsync\n\n"
            "def sync(fh):\n    fsync(fh.fileno())\n"
        )
        config = LintConfig(library_part="repro")
        hits = lint_source(src, path="src/repro/core/x.py", config=config)
        assert {f.rule for f in hits} == {"R10"}


class TestR3Details:
    def test_unused_deadline_message_names_function(self):
        findings, _ = lint_paths([FIXTURES / "r3_bad.py"], CONFIG)
        messages = {f.rule: [] for f in findings}
        for f in findings:
            messages[f.rule].append(f.message)
        assert any("scan_unused" in m for m in messages["R3"])
        assert any("parallel_map" in m for m in messages["R3"])
        assert any("helper_scan" in m for m in messages["R3"])


class TestR5:
    def _src(self):
        return (
            "from typing import Literal\n"
            '_AUDIT_MODES = ("repair", "experimental")\n'
            'EvalMode = Literal["patched", "uncovered"]\n'
        )

    def test_uncovered_modes_flagged(self, tmp_path):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_modes.py").write_text(
            'def test_repair():\n    assert audit(mode="repair")\n'
            'def test_patched():\n    assert cost(mode=\'patched\')\n'
        )
        lib = tmp_path / "repro" / "kernel.py"
        lib.parent.mkdir()
        lib.write_text(self._src())
        config = LintConfig(tests_dir=tests_dir)
        findings, _ = lint_paths([lib], config)
        flagged = {f.message.split("'")[1] for f in findings if f.rule == "R5"}
        assert flagged == {"experimental", "uncovered"}

    def test_disabled_without_tests_dir(self, tmp_path):
        lib = tmp_path / "repro" / "kernel.py"
        lib.parent.mkdir()
        lib.write_text(self._src())
        findings, _ = lint_paths([lib], LintConfig(tests_dir=None))
        assert [f for f in findings if f.rule == "R5"] == []


class TestR7Scope:
    _SRC = (
        "from dataclasses import dataclass\n"
        "import json\n"
        "@dataclass\n"
        "class FooRecord:\n"
        "    a: int\n"
        "def dump(path, recs):\n"
        "    with open(path, 'w') as fh:\n"
        "        json.dump(recs, fh)\n"
    )

    def test_fires_outside_the_sanctioned_paths(self):
        config = LintConfig(library_part="repro")
        hits = lint_source(
            self._SRC, path="src/repro/core/writer.py", config=config
        )
        assert {f.rule for f in hits} == {"R7"}

    def test_fires_in_the_experiments_layer(self):
        # jsonl_store is the one sanctioned persistence path; the
        # experiment layer builds its stores, it does not write records.
        config = LintConfig(library_part="repro")
        hits = lint_source(
            self._SRC, path="src/repro/experiments/writer.py", config=config
        )
        assert {f.rule for f in hits} == {"R7"}


class TestR9:
    _REGISTRY = (
        "register_experiment(ExperimentDef(\n"
        "    name='census-pinned',\n"
        "    summary='x',\n"
        "))\n"
        "register_experiment(ExperimentDef(name='census-unpinned'))\n"
    )

    def _lint(self, tmp_path, tests_dir):
        lib = tmp_path / "repro" / "registry.py"
        lib.parent.mkdir(exist_ok=True)
        lib.write_text(self._REGISTRY)
        findings, _ = lint_paths([lib], LintConfig(tests_dir=tests_dir))
        return [f for f in findings if f.rule == "R9"]

    def test_unpinned_experiment_flagged(self, tmp_path):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_golden.py").write_text(
            'CASES = {"census-pinned": "census_pinned.jsonl"}\n'
        )
        r9 = self._lint(tmp_path, tests_dir)
        assert [f.message.split("'")[1] for f in r9] == ["census-unpinned"]

    def test_non_golden_test_files_do_not_count(self, tmp_path):
        tests_dir = tmp_path / "tests"
        tests_dir.mkdir()
        (tests_dir / "test_other.py").write_text(
            '"census-pinned"\n"census-unpinned"\n'
        )
        r9 = self._lint(tmp_path, tests_dir)
        assert {f.message.split("'")[1] for f in r9} == {
            "census-pinned", "census-unpinned",
        }

    def test_disabled_without_tests_dir(self, tmp_path):
        assert self._lint(tmp_path, None) == []


class TestSuppression:
    def test_same_line_directive_silences_named_rule(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro-lint: disable=R1 -- coarse log stamp only\n"
        )
        assert lint_source(src) == []

    def test_standalone_directive_binds_to_next_code_line(self):
        src = (
            "import time\n"
            "def f():\n"
            "    # repro-lint: disable=R1 -- coarse log stamp only\n"
            "    return time.time()\n"
        )
        assert lint_source(src) == []

    def test_directive_does_not_leak_to_other_lines(self):
        src = (
            "import time\n"
            "def f():\n"
            "    a = time.time()  # repro-lint: disable=R1 -- stamp\n"
            "    b = time.time()\n"
            "    return a, b\n"
        )
        hits = lint_source(src)
        assert [(f.rule, f.line) for f in hits] == [("R1", 4)]

    def test_directive_silences_only_named_rule(self):
        src = (
            "import time\n"
            "def f(xs=[]):  # repro-lint: disable=R1 -- wrong code for this rule\n"
            "    return xs\n"
        )
        assert {f.rule for f in lint_source(src)} == {"R8"}

    def test_missing_reason_is_an_r0_finding(self):
        src = (
            "import time\n"
            "def f():\n"
            "    return time.time()  # repro-lint: disable=R1\n"
        )
        rules = {f.rule for f in lint_source(src)}
        # The unjustified directive is reported AND does not suppress.
        assert rules == {"R0", "R1"}

    def test_unparsable_directive_is_an_r0_finding(self):
        src = "x = 1  # repro-lint: disable-next-line R1\n"
        assert {f.rule for f in lint_source(src)} == {"R0"}

    def test_directive_in_string_literal_is_ignored(self):
        src = 'DOC = "# repro-lint: disable=R1"\nx = 1\n'
        assert lint_source(src) == []

    def test_retired_rule_id_in_directive_keeps_its_meaning(self):
        # R6 is retired, not renumbered: old directives naming it still
        # parse as justified and still silence the live rules beside it.
        src = (
            "import time\n"
            "def f():\n"
            "    x = 1  # repro-lint: disable=R6 -- legacy worker view\n"
            "    return x, time.time()  # repro-lint: disable=R6,R1 -- stamp\n"
        )
        assert lint_source(src) == []

    def test_disable_all(self):
        src = (
            "import time\n"
            "def f(xs=[]):  # repro-lint: disable=ALL -- generated stub\n"
            "    return xs, time.time()\n"
        )
        hits = lint_source(src)
        assert [f for f in hits if f.line == 2] == []


class TestEngine:
    def test_syntax_error_becomes_parse_finding(self):
        hits = lint_source("def broken(:\n")
        assert [f.rule for f in hits] == ["PARSE"]

    def test_select_restricts_rules(self):
        src = "import time\n\ndef f(xs=[]):\n    return xs, time.time()\n"
        only_r8 = lint_source(src, config=LintConfig(select=frozenset({"R8"})))
        assert {f.rule for f in only_r8} == {"R8"}

    def test_findings_sorted_by_location(self):
        findings, _ = lint_paths([FIXTURES / "r1_bad.py"], CONFIG)
        assert findings == sorted(findings)
