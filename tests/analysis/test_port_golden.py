"""Migration gate for the analyzer: every generated tree and every report
the CLI prints, recorded as SHA-256 digests from the commit before the
dispatching line classifier (``tests/fixtures/port_golden.json``) and
required to stay equal to the last byte.

Re-record (only from a commit whose lexer is the reference) with::

    PYTHONPATH=src python tests/analysis/test_port_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from repro.analysis import port
from repro.cli import main
from repro.codes import CodeVersion
from repro.fortran import generate_mas_codebase
from repro.fortran.frontend import load_external_tree
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = FIXTURES / "port_golden.json"

#: corpus -> the ``repro lint`` arguments that select it
CORPORA: dict[str, list[str]] = {
    "seeded": ["--fixtures", "seeded"],
    "interproc": [str(FIXTURES / "interproc")],
    "external": [str(FIXTURES / "external")],
}
#: report -> the ``repro lint`` arguments that print it
REPORTS: dict[str, list[str]] = {
    "json": ["--format", "json", "--fail-on", "never"],
    "sarif": ["--format", "sarif", "--fail-on", "never"],
    "cost": ["--cost"],
    "callgraph": ["--call-graph", "json"],
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def tree_digest(cb: Codebase) -> str:
    """Digest of every file name and the full text of every file, in order."""
    return _sha("".join(f"--- {f.name}\n{f.text()}" for f in cb.files))


def tree_digests() -> dict[str, str]:
    code1 = generate_mas_codebase()
    out = {
        f"build_version:{v.name}": tree_digest(build_version(v, code1=code1))
        for v in CodeVersion
    }
    for target in port.PortTarget:
        result = port.port_codebase(target, code1=code1)
        out[f"port_codebase:{target.value}"] = _sha(
            tree_digest(result.codebase) + result.summary()
            + json.dumps(result.dropped_atomics)
        )
    external = load_external_tree(FIXTURES / "external", name="external").codebase
    for target in port.PortTarget:
        inc = port.port_tree_incremental(external, target)
        out[f"incremental:{target.value}"] = _sha(
            tree_digest(inc.codebase) + json.dumps(inc.manifest_dict(), sort_keys=True)
        )
    return out


def report_digest(corpus: str, report: str) -> str:
    """Digest of what ``repro lint <corpus> <report flags>`` prints."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        main(["lint", *CORPORA[corpus], *REPORTS[report]])
    return _sha(stdout.getvalue())


def test_generated_and_ported_trees_match_the_parent_byte_for_byte():
    assert tree_digests() == json.loads(GOLDEN.read_text())["trees"]


@pytest.mark.parametrize("report", sorted(REPORTS))
@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_lint_reports_match_the_parent_byte_for_byte(corpus, report):
    golden = json.loads(GOLDEN.read_text())["reports"]
    assert report_digest(corpus, report) == golden[f"{corpus}:{report}"]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {
            "trees": tree_digests(),
            "reports": {
                f"{corpus}:{report}": report_digest(corpus, report)
                for corpus in sorted(CORPORA)
                for report in sorted(REPORTS)
            },
        },
        indent=1, sort_keys=True,
    ) + "\n")
    print(f"wrote {GOLDEN}")
