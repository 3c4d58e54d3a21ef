"""A Fortran tree with a byte that is not UTF-8 (a Latin-1 ``é`` in a
comment) lints as its ASCII twin does, plus one FE001 note naming the
line, prints, and comes back out of ``--fix --fix-out`` and ``repro port
--incremental --out`` byte for byte.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import pytest

from repro.analysis.findings import sort_findings
from repro.analysis.fortran_lint import analyze_codebase
from repro.cli import main
from repro.fortran.frontend import load_external_tree

EXTERNAL = Path(__file__).resolve().parent.parent / "fixtures" / "external"
#: A file both writers reproduce byte for byte, and the comment that gets the byte.
TOUCHED = "src/globals.f90"
COMMENT = b"! ****** Global mesh and field storage."


def _tree(tmp_path: Path, name: str, byte: bytes) -> Path:
    root = tmp_path / name
    shutil.copytree(EXTERNAL / "src", root / "src")
    path = root / TOUCHED
    text = path.read_bytes()
    assert COMMENT in text
    path.write_bytes(text.replace(COMMENT, COMMENT[:-1] + b" (caf" + byte + b").", 1))
    return root


@pytest.fixture
def latin(tmp_path) -> Path:
    return _tree(tmp_path, "latin", b"\xe9")


def _lint(root: Path):
    res = load_external_tree(root)
    return sort_findings([*analyze_codebase(res.codebase), *res.diagnostics])


def test_the_tree_lints_as_its_ascii_twin_plus_one_note(latin, tmp_path):
    twin = _tree(tmp_path, "twin", b"e")
    got, want = _lint(latin), _lint(twin)
    notes = [f for f in got if f not in want]
    assert [f for f in got if f in want] == want
    assert [(f.rule_id, f.file, f.line) for f in notes] == [("FE001", TOUCHED, 3)]
    assert "not UTF-8" in notes[0].message and "caf\\xe9" in notes[0].message


def test_the_table_prints(latin, capsys):
    assert main(["lint", str(latin), "--fail-on", "never"]) == 0
    out = capsys.readouterr().out
    out.encode("utf-8")  # what a UTF-8 stdout does to it: no lone surrogate
    assert f"{TOUCHED}:3" in out


@pytest.mark.parametrize("argv", [
    ["port", "{tree}", "--to", "dc", "--incremental", "--out", "{out}"],
    ["lint", "{tree}", "--fix", "--fix-out", "{out}", "--fail-on", "never"],
], ids=["port", "fix"])
def test_the_byte_is_written_back(latin, tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert main([a.format(tree=latin, out=out) for a in argv]) == 0
    assert (out / TOUCHED).read_bytes() == (latin / TOUCHED).read_bytes()
    assert b"caf\xe9" in (out / TOUCHED).read_bytes()
    capsys.readouterr()


#: A routine whose I/O statement holds the byte, called from a DC loop:
#: the call's finding quotes that statement as the callee's effect.
CALLED = b"""module logs
  implicit none
contains
  subroutine log_value (x)
    real :: x
    write(*,*) "caf\xe9", x
  end subroutine log_value

  subroutine sweep (a, n)
    integer :: n, i
    real, dimension(n) :: a
    do concurrent (i=1:n)
      call log_value (a(i))
    enddo
  end subroutine sweep
end module logs
"""


def _strings(doc):
    if isinstance(doc, str):
        yield doc
    elif isinstance(doc, dict):
        for key, value in doc.items():
            yield key
            yield from _strings(value)
    elif isinstance(doc, list):
        for value in doc:
            yield from _strings(value)


@pytest.mark.parametrize("fmt", ["json", "sarif"])
def test_exports_quote_the_byte_as_the_note_does(tmp_path, capsys, fmt):
    import json

    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "logs.f90").write_bytes(CALLED)
    assert main(["lint", str(tmp_path), "--format", fmt, "--fail-on", "never"]) == 0
    strings = list(_strings(json.loads(capsys.readouterr().out)))
    for text in strings:
        text.encode("utf-8")  # strict: no lone surrogate anywhere in the document
    statement = 'write(*,*) "caf\\xe9", x'
    assert f"io: {statement}" in strings
    assert f"bytes that are not UTF-8, kept as they are: {statement}" in strings
