"""The provenance and exception-safety rules (GRIT-F003..F005).

Each F-rule has a ``corpus/<rule>_bad`` mini-package it must fire on
and a ``corpus/<rule>_good`` fixed twin it must stay silent on.  The
corpora are real directory trees (not inline strings) so the passes
are exercised through the same engine path as ``grit-repro lint``.
"""

import textwrap
from pathlib import Path

from repro.lint import LintEngine

CORPUS = Path(__file__).resolve().parent / "corpus"


def lint_corpus(name, rule_id):
    findings = LintEngine(CORPUS / name).run()
    return [f for f in findings if f.rule_id == rule_id]


def make_package(tmp_path, files):
    root = tmp_path / "pkg"
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))
    return root


class TestConfigProvenance:
    def test_flags_dead_knob_and_unread_env_var(self):
        hits = lint_corpus("f003_bad", "GRIT-F003")
        messages = sorted(f.message for f in hits)
        assert len(hits) == 2
        assert "TunerConfig.dead_knob" in messages[0]
        assert "GRIT_TUNER" in messages[1]
        knob = next(f for f in hits if "dead_knob" in f.message)
        assert knob.path == "config.py"

    def test_silent_on_fixed_corpus(self):
        assert lint_corpus("f003_good", "GRIT-F003") == []

    def test_env_var_must_be_documented_in_config(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "config.py": """\
                import dataclasses


                @dataclasses.dataclass
                class C:
                    knob: int = 1
                """,
                "sim/use.py": """\
                import os


                def effective(config):
                    base = config.knob
                    return os.environ.get("GRIT_SECRET", base)
                """,
            },
        )
        findings = LintEngine(root).run()
        hits = [f for f in findings if f.rule_id == "GRIT-F003"]
        assert len(hits) == 1
        assert "round-trip" in hits[0].message


class TestCliProvenance:
    def test_flags_unread_flag_and_orphan_subcommand(self):
        hits = lint_corpus("f004_bad", "GRIT-F004")
        assert len(hits) == 2
        messages = " | ".join(sorted(f.message for f in hits))
        assert "--ghost-flag" in messages
        assert "'orphan'" in messages
        assert all(f.path == "cli.py" for f in hits)

    def test_silent_on_helper_chain_corpus(self):
        assert lint_corpus("f004_good", "GRIT-F004") == []


class TestWorkerSafety:
    def test_flags_swallow_leak_and_pass_only_handler(self):
        hits = lint_corpus("f005_bad", "GRIT-F005")
        assert len(hits) == 3
        messages = " | ".join(sorted(f.message for f in hits))
        assert "swallows BaseException" in messages
        assert "open() outside a with block" in messages
        assert "silently swallows Exception" in messages
        assert {f.path for f in hits} == {
            "harness/worker.py",
            "harness/jobs.py",
        }

    def test_silent_on_fixed_corpus(self):
        assert lint_corpus("f005_good", "GRIT-F005") == []

    def test_flags_code_no_worker_target_reaches(self, tmp_path):
        root = make_package(
            tmp_path,
            {
                "harness/report.py": """\
                LOG = open("report.log", "w")


                class Reporter:
                    def flush(self, rows):
                        try:
                            return len(rows)
                        except BaseException:
                            return 0
                """,
            },
        )
        findings = LintEngine(root).run()
        messages = sorted(
            f.message for f in findings if f.rule_id == "GRIT-F005"
        )
        assert len(messages) == 2
        assert messages[0].startswith(
            "Reporter.flush() swallows BaseException"
        )
        assert messages[1].startswith(
            "open() outside a with block in module-level code"
        )
