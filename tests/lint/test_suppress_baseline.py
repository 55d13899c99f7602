"""Inline suppressions and the unused-suppression warning."""

import textwrap

from repro.lint import LintEngine


def make_package(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


def run_lint(tmp_path, source):
    root = make_package(tmp_path, {"sim/mod.py": source})
    return LintEngine(root).run()


class TestSuppressions:
    def test_same_line_marker_silences_the_finding(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """\
            import time


            def stamp():
                return time.time()  # simlint: ignore[GRIT-D001]
            """,
        )
        assert [f for f in findings if f.rule_id == "GRIT-D001"] == []
        assert [f for f in findings if f.rule_id == "GRIT-S001"] == []

    def test_own_line_marker_covers_the_next_line(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """\
            import time


            def stamp():
                # simlint: ignore[GRIT-D001]
                return time.time()
            """,
        )
        assert [f for f in findings if f.rule_id == "GRIT-D001"] == []
        assert [f for f in findings if f.rule_id == "GRIT-S001"] == []

    def test_unused_marker_is_reported_as_s001(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """\
            def quiet():
                return 1  # simlint: ignore[GRIT-D001]
            """,
        )
        hits = [f for f in findings if f.rule_id == "GRIT-S001"]
        assert len(hits) == 1
        assert hits[0].line == 2
        assert "GRIT-D001" in hits[0].message
        assert hits[0].severity.value == "warning"

    def test_marker_inside_string_literal_is_inert(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """\
            HINT = "write # simlint: ignore[GRIT-D001] to suppress"
            """,
        )
        assert [f for f in findings if f.rule_id == "GRIT-S001"] == []

    def test_marker_can_name_several_rules(self, tmp_path):
        findings = run_lint(
            tmp_path,
            """\
            import random
            import time


            def stamp():
                # simlint: ignore[GRIT-D001, GRIT-D002]
                return time.time() + random.random()
            """,
        )
        flagged = {
            f.rule_id
            for f in findings
            if f.rule_id in ("GRIT-D001", "GRIT-D002", "GRIT-S001")
        }
        assert flagged == set()
