"""The simlint engine, registry, reporters — and the repo's own code."""

import json
from pathlib import Path

import pytest

import repro
from repro.lint import (
    FileRule,
    Finding,
    LintEngine,
    Severity,
    exit_code,
    lint_source,
    make_rules,
    render_json,
    render_text,
)
from repro.lint.engine import PARSE_ERROR_RULE_ID, check_module, rule
from repro.lint.symbols import SymbolTable, parse_module

PACKAGE_ROOT = Path(repro.__file__).resolve().parent
REPO_ROOT = PACKAGE_ROOT.parent.parent


class TestRegistry:
    def test_catalog_is_nonempty_sorted_and_unique(self):
        rules = make_rules()
        rule_ids = [r.rule_id for r in rules]
        assert len(rule_ids) >= 8
        assert rule_ids == sorted(rule_ids)
        assert len(set(rule_ids)) == len(rule_ids)

    def test_every_rule_has_identity_and_hint(self):
        for r in make_rules():
            assert r.rule_id.startswith("GRIT-")
            assert r.description
            assert r.hint

    def test_duplicate_rule_id_rejected(self):
        class Clone(FileRule):
            rule_id = make_rules()[0].rule_id
            description = "clone"

        with pytest.raises(ValueError):
            rule(Clone)

    def test_rule_without_id_rejected(self):
        class Anonymous(FileRule):
            description = "nameless"

        with pytest.raises(ValueError):
            rule(Anonymous)


class TestRepoIsClean:
    def test_lint_finds_nothing_in_the_package(self):
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run()
        assert findings == [], render_text(findings)

    def test_path_selection_narrows_file_rules(self):
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run(paths=[PACKAGE_ROOT / "uvm"])
        assert findings == [], render_text(findings)


class TestEngineMechanics:
    def test_findings_are_sorted(self):
        source = (
            "def b(y={}):\n"
            "    return y\n"
            "\n"
            "def a(x=[]):\n"
            "    return x\n"
        )
        findings = lint_source(source, relpath="harness/fixture.py")
        assert [f.line for f in findings] == [1, 4]

    def test_fixture_outside_package_is_linted(self, tmp_path):
        bad = tmp_path / "fixture.py"
        bad.write_text("def f(x=[]):\n    return x\n")
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run(paths=[bad])
        assert [f.rule_id for f in findings].count("GRIT-H001") == 1

    def test_unparsable_fixture_becomes_parse_error_finding(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def broken(:\n")
        engine = LintEngine(PACKAGE_ROOT, repo_root=REPO_ROOT)
        findings = engine.run(paths=[bad])
        parse_errors = [
            f for f in findings if f.rule_id == PARSE_ERROR_RULE_ID
        ]
        assert len(parse_errors) == 1
        assert parse_errors[0].severity is Severity.ERROR

    def test_syntax_error_degrades_to_parse_finding(self, tmp_path):
        root = tmp_path / "pkg"
        (root / "sim").mkdir(parents=True)
        (root / "sim" / "broken.py").write_text("def oops(:\n")
        (root / "sim" / "ok.py").write_text(
            "import time\n"
            "\n"
            "def stamp():\n"
            "    return time.time()\n"
        )
        findings = LintEngine(root).run()
        assert [f for f in findings if f.rule_id == PARSE_ERROR_RULE_ID]
        # The parseable module is still linted.
        assert [f for f in findings if f.rule_id == "GRIT-D001"]

    def test_single_walk_dispatch_reaches_all_rules(self, tmp_path):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            "import time\n"
            "\n"
            "def f(x=[]):\n"
            "    try:\n"
            "        return time.time()\n"
            "    except:\n"
            "        return x\n"
        )
        module = parse_module(fixture, "uvm/fixture.py")
        found = {f.rule_id for f in check_module(module, make_rules())}
        assert {"GRIT-D001", "GRIT-H001", "GRIT-H002"} <= found


class TestReporters:
    def _findings(self):
        return [
            Finding(
                rule_id="GRIT-T001",
                severity=Severity.ERROR,
                path="uvm/x.py",
                line=3,
                col=4,
                message="boom",
                hint="do not boom",
            ),
            Finding(
                rule_id="GRIT-T002",
                severity=Severity.WARNING,
                path="sim/y.py",
                line=9,
                message="hmm",
            ),
        ]

    def test_text_report(self):
        text = render_text(self._findings())
        assert "uvm/x.py:3:4: GRIT-T001 [error] boom" in text
        assert "hint: do not boom" in text
        assert "simlint: 1 error(s), 1 warning(s)" in text
        assert render_text([]) == "simlint: no findings"

    def test_json_report_round_trips(self):
        data = json.loads(render_json(self._findings()))
        assert data["errors"] == 1
        assert data["warnings"] == 1
        assert data["findings"][0]["rule"] == "GRIT-T001"
        assert data["findings"][0]["line"] == 3

    def test_exit_code_policy(self):
        findings = self._findings()
        assert exit_code(findings) == 1
        assert exit_code([findings[1]]) == 0  # warnings do not gate
        assert exit_code([]) == 0


class TestSymbolTable:
    def test_scan_collects_modules_and_docs(self):
        symbols = SymbolTable.scan(PACKAGE_ROOT, REPO_ROOT)
        assert symbols.module("cli.py") is not None
        assert symbols.module("uvm/driver.py") is not None
        assert "GRIT" in symbols.docs_text
        assert symbols.parse_failures == ()

    def test_enum_members_and_uses(self):
        symbols = SymbolTable.scan(PACKAGE_ROOT, REPO_ROOT)
        members = dict(symbols.enum_members("stats/events.py", "EventKind"))
        assert "MIGRATION" in members
        uses = symbols.attribute_uses("EventKind")
        assert any(
            relpath.startswith("uvm/")
            for relpath, _ in uses.get("MIGRATION", ())
        )
