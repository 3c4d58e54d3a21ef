"""Minimal SARIF readers: the inverse of ``findings_to_sarif``.

Oracle for the SARIF round-trip tests (``test_report.py``,
``test_interproc.py``): export, read back, and the edits must apply to a
clean re-lint and the related locations must survive unchanged.
"""

from __future__ import annotations

import json

from repro.analysis.findings import Finding, RelatedLocation
from repro.analysis.fixes import TextEdit


def sarif_to_edits(sarif_text: str) -> list:
    """Minimal SARIF ``fixes`` reader: parse back the edits we export.

    Returns the :class:`~repro.analysis.fixes.TextEdit` list encoded in a
    log produced by :func:`findings_to_sarif` (anchors are not encoded in
    SARIF, so the returned edits carry empty anchors and apply
    unconditionally).  Used by the round-trip regression test: export,
    re-read, apply, and the re-lint must come back clean.
    """
    log = json.loads(sarif_text)
    edits: list[TextEdit] = []
    seen: set[tuple] = set()
    for run in log.get("runs", []):
        for result in run.get("results", []):
            for fix in result.get("fixes", []):
                for change in fix.get("artifactChanges", []):
                    uri = change["artifactLocation"]["uri"]
                    for rep in change.get("replacements", []):
                        region = rep["deletedRegion"]
                        start = region["startLine"] - 1
                        inserted = rep.get("insertedContent", {}).get(
                            "text", ""
                        )
                        repl = (
                            tuple(inserted.split("\n")[:-1])
                            if inserted
                            else ()
                        )
                        zero_width = (
                            region.get("startColumn") == 1
                            and region.get("endColumn") == 1
                            and region.get("endLine") == region["startLine"]
                        )
                        end = start - 1 if zero_width else region["endLine"] - 1
                        key = (uri, start, end, repl)
                        if key in seen:
                            continue
                        seen.add(key)
                        edits.append(
                            TextEdit(
                                file=uri, start=start, end=end,
                                replacement=repl,
                            )
                        )
    return edits


def sarif_to_findings(sarif_text: str) -> list[Finding]:
    """Minimal SARIF ``results`` reader: the inverse of
    :func:`findings_to_sarif` for the fields findings render with
    (rule/file/line/message) plus ``relatedLocations``.  Fixes are
    recovered separately by :func:`sarif_to_edits`; anchors and context
    are not encoded in SARIF and come back empty.  Used by the
    round-trip regression test: export, re-read, and the related
    evidence locations must survive unchanged.
    """
    log = json.loads(sarif_text)
    out: list[Finding] = []
    for run in log.get("runs", []):
        for result in run.get("results", []):
            locs = result.get("locations", [])
            phys = locs[0].get("physicalLocation", {}) if locs else {}
            related = tuple(
                RelatedLocation(
                    file=r.get("physicalLocation", {})
                    .get("artifactLocation", {})
                    .get("uri", ""),
                    line=r.get("physicalLocation", {})
                    .get("region", {})
                    .get("startLine", 0),
                    message=r.get("message", {}).get("text", ""),
                )
                for r in result.get("relatedLocations", [])
            )
            out.append(
                Finding(
                    rule_id=result.get("ruleId", ""),
                    file=phys.get("artifactLocation", {}).get("uri", ""),
                    line=phys.get("region", {}).get("startLine", 0),
                    message=result.get("message", {}).get("text", ""),
                    related=related,
                )
            )
    return out
