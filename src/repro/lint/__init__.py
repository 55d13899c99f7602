"""simlint: the GRIT reproduction's own static-analysis pass.

An AST-based rule engine with repo-specific rules in four families —
determinism (no wall clock / unseeded RNG / unordered-set iteration in
the simulation core), hygiene (mutable defaults, bare excepts),
cross-module consistency (policy registry reachability, EventKind
emission coverage, LatencyCategory-typed charges, documented CLI
subcommands), and provenance and exception safety (every config field,
``GRIT_*`` env var and CLI flag is consumed; no code swallows
``BaseException`` or leaks a file handle).  Run it via
``grit-repro lint`` or programmatically:

    from pathlib import Path
    from repro.lint import LintEngine

    findings = LintEngine(Path("src/repro"), Path(".")).run()
    assert not findings

See docs/static_analysis.md for the rule catalog and how to add rules.
"""

from repro.lint.engine import (
    LintEngine,
    FileRule,
    ProjectRule,
    Rule,
    check_module,
    lint_source,
    make_rules,
    registered_rules,
    rule,
)
from repro.lint.findings import Finding, Severity, exit_code
from repro.lint.report import render_json, render_sarif, render_text
from repro.lint.suppress import apply_suppressions
from repro.lint.symbols import ModuleInfo, SymbolTable

__all__ = [
    "Finding",
    "Severity",
    "exit_code",
    "LintEngine",
    "FileRule",
    "ProjectRule",
    "Rule",
    "apply_suppressions",
    "check_module",
    "lint_source",
    "make_rules",
    "registered_rules",
    "rule",
    "render_json",
    "render_sarif",
    "render_text",
    "ModuleInfo",
    "SymbolTable",
]
