"""Finding exporters: terminal table, JSON, and SARIF 2.1.0.

The SARIF export is the CI-facing artifact: GitHub's code-scanning upload
and most editors consume it directly, so ``repro lint --sarif out.sarif``
is all a pipeline needs to annotate a PR with analyzer findings.  Findings
carrying a :class:`~repro.analysis.fixes.Fix` export it under SARIF's
``fixes`` property (``artifactChanges``/``replacements``), so the CI
artifact ships the machine-applicable patches too (the tests read them
back and apply them, ``tests/analysis/sarif_reader.py``).

Exports are byte-stable: findings are fully ordered
(:func:`~repro.analysis.findings.sort_findings`), dictionaries are
serialized with sorted keys, and nothing time- or environment-dependent
is embedded.
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.analysis.findings import (
    Finding,
    RULES,
    count_by_severity,
    sort_findings,
)


def render_findings(findings: Iterable[Finding]) -> str:
    """Severity-ranked table plus a one-line summary."""
    from repro.util.tables import Table

    ranked = sort_findings(findings)
    if not ranked:
        return "no findings"
    t = Table(["severity", "rule", "location", "message"])
    for f in ranked:
        loc = f"{f.file}:{f.line}" if f.line else f.file
        t.add_row([f.severity.name.lower(), f.rule_id, loc, f.message])
    counts = count_by_severity(ranked)
    summary = ", ".join(
        f"{n} {name.lower()}{'s' if n != 1 else ''}"
        for name, n in counts.items()
        if n
    )
    return t.render() + f"\n{len(ranked)} findings: {summary}"


def findings_to_json(findings: Iterable[Finding]) -> str:
    """Machine-readable dump (stable ordering)."""
    ranked = sort_findings(findings)
    payload = {
        "findings": [
            {
                "rule": f.rule_id,
                "severity": f.severity.name.lower(),
                "title": f.rule.title,
                "file": f.file,
                "line": f.line,
                "message": f.message,
                **({"context": f.context} if f.context else {}),
                **(
                    {
                        "related": [
                            {"file": r.file, "line": r.line,
                             "message": r.message}
                            for r in f.related
                        ]
                    }
                    if f.related
                    else {}
                ),
            }
            for f in ranked
        ],
        "counts": {
            k.lower(): v for k, v in count_by_severity(ranked).items()
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_replacement(edit) -> dict:
    """One SARIF ``replacement`` for a line-based :class:`TextEdit`.

    Deletions/replacements use a whole-line ``deletedRegion``; pure
    insertions use the zero-width region convention (``startColumn ==
    endColumn == 1`` on the line the text lands in front of).
    """
    if edit.is_insertion:
        region = {
            "startLine": edit.start + 1,
            "startColumn": 1,
            "endLine": edit.start + 1,
            "endColumn": 1,
        }
    else:
        region = {"startLine": edit.start + 1, "endLine": edit.end + 1}
    rep: dict = {"deletedRegion": region}
    if edit.replacement:
        rep["insertedContent"] = {"text": "\n".join(edit.replacement) + "\n"}
    return rep


def _sarif_fix(fix) -> dict:
    """SARIF ``fix`` object: description plus per-file artifact changes."""
    by_file: dict[str, list] = {}
    for e in fix.edits:
        by_file.setdefault(e.file, []).append(e)
    return {
        "description": {"text": fix.description},
        "artifactChanges": [
            {
                "artifactLocation": {"uri": fname},
                "replacements": [_sarif_replacement(e) for e in edits],
            }
            for fname, edits in sorted(by_file.items())
        ],
    }


def findings_to_sarif(
    findings: Iterable[Finding], *, tool_version: str = "1.0"
) -> str:
    """Minimal valid SARIF 2.1.0 log with one run."""
    ranked = sort_findings(findings)
    used_rules = sorted({f.rule_id for f in ranked})
    rules = [
        {
            "id": rid,
            "name": RULES[rid].title.title().replace(" ", ""),
            "shortDescription": {"text": RULES[rid].title},
            "fullDescription": {"text": RULES[rid].summary},
            "defaultConfiguration": {
                "level": RULES[rid].severity.sarif_level
            },
        }
        for rid in used_rules
    ]
    rule_index = {rid: i for i, rid in enumerate(used_rules)}
    results = []
    for f in ranked:
        result = {
            "ruleId": f.rule_id,
            "ruleIndex": rule_index[f.rule_id],
            "level": f.severity.sarif_level,
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.file},
                        "region": {"startLine": max(f.line, 1)},
                    }
                }
            ],
        }
        if f.related:
            result["relatedLocations"] = [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": r.file},
                        "region": {"startLine": max(r.line, 1)},
                    },
                    **({"message": {"text": r.message}} if r.message else {}),
                }
                for r in f.related
            ]
        if f.fix is not None:
            result["fixes"] = [_sarif_fix(f.fix)]
        results.append(result)
    log = {
        "$schema": (
            "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
            "Schemata/sarif-schema-2.1.0.json"
        ),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "informationUri": "https://example.invalid/repro",
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)


def explain_rule(rule_id: str) -> str:
    """Human-readable catalog entry for ``repro lint --explain RULE``."""
    from repro.analysis.fixes import FIXABLE_RULES

    rule = RULES.get(rule_id.upper())
    if rule is None:
        known = ", ".join(sorted(RULES))
        return f"unknown rule {rule_id!r}; known rules: {known}"
    lines = [
        f"{rule.id}: {rule.title}",
        f"  severity:  {rule.severity.name.lower()}",
        f"  auto-fix:  {'yes (repro lint --fix)' if rule.id in FIXABLE_RULES else 'no (report-only)'}",
        f"  suppress:  !repro: disable={rule.id} on the flagged line",
        "",
        f"  {rule.summary}",
    ]
    catalog = _catalog_entry(rule.id)
    if catalog:
        lines += ["", "  from docs/ANALYSIS.md:", f"    {catalog}"]
    return "\n".join(lines)


def _catalog_entry(rule_id: str) -> str:
    """The rule's row in the docs/ANALYSIS.md catalog table, if present."""
    from pathlib import Path

    doc = Path(__file__).resolve().parents[3] / "docs" / "ANALYSIS.md"
    try:
        text = doc.read_text()
    except OSError:
        return ""
    for line in text.splitlines():
        if line.lstrip().startswith(f"| {rule_id}"):
            cells = [c.strip() for c in line.strip().strip("|").split("|")]
            return " -- ".join(c.replace("`", "") for c in cells if c)
    return ""
