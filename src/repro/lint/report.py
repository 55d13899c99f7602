"""Finding reporters: text, JSON, and SARIF for code scanning."""

from __future__ import annotations

import json
from typing import Dict, List

from repro.lint.engine import PARSE_ERROR_RULE_ID, make_rules
from repro.lint.findings import Finding, Severity
from repro.lint.suppress import UNUSED_SUPPRESSION_RULE_ID

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: List[Finding]) -> str:
    """GCC-style ``file:line:col: rule [severity] message`` listing."""
    if not findings:
        return "simlint: no findings"
    lines = [finding.render() for finding in findings]
    errors = sum(
        1 for finding in findings if finding.severity is Severity.ERROR
    )
    warnings = len(findings) - errors
    summary = f"simlint: {errors} error(s), {warnings} warning(s)"
    return "\n".join([*lines, summary])


def render_json(findings: List[Finding]) -> str:
    """JSON document with one row per finding plus totals."""
    document: Dict[str, object] = {
        "findings": [finding.to_dict() for finding in findings],
        "errors": sum(
            1
            for finding in findings
            if finding.severity is Severity.ERROR
        ),
        "warnings": sum(
            1
            for finding in findings
            if finding.severity is Severity.WARNING
        ),
    }
    return json.dumps(document, indent=2)


def _sarif_rules() -> List[Dict[str, object]]:
    catalog: List[Dict[str, object]] = []
    for candidate in make_rules():
        catalog.append(
            {
                "id": candidate.rule_id,
                "shortDescription": {"text": candidate.description},
                "help": {"text": candidate.hint or candidate.description},
                "defaultConfiguration": {
                    "level": candidate.severity.value
                },
            }
        )
    catalog.append(
        {
            "id": PARSE_ERROR_RULE_ID,
            "shortDescription": {"text": "file does not parse"},
            "help": {"text": "fix the syntax error"},
            "defaultConfiguration": {"level": "error"},
        }
    )
    catalog.append(
        {
            "id": UNUSED_SUPPRESSION_RULE_ID,
            "shortDescription": {
                "text": "a # simlint: ignore comment silences nothing"
            },
            "help": {"text": "delete the stale suppression"},
            "defaultConfiguration": {"level": "warning"},
        }
    )
    catalog.sort(key=lambda row: str(row["id"]))
    return catalog


def render_sarif(
    findings: List[Finding], uri_prefix: str = ""
) -> str:
    """SARIF 2.1.0 document (GitHub code-scanning compatible).

    ``uri_prefix`` maps package-relative finding paths onto
    repo-relative artifact URIs (e.g. ``"src/repro/"``).
    """
    results = [
        {
            "ruleId": finding.rule_id,
            "level": finding.severity.value,
            "message": {"text": finding.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": uri_prefix + finding.path
                        },
                        "region": {
                            "startLine": max(finding.line, 1),
                            "startColumn": finding.col + 1,
                        },
                    }
                }
            ],
        }
        for finding in findings
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "simlint",
                        "informationUri": (
                            "docs/static_analysis.md in this repository"
                        ),
                        "rules": _sarif_rules(),
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(document, indent=2)
