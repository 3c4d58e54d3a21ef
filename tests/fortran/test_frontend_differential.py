"""The front end's candidate-row passes against the per-line passes they
replaced (``reference_frontend``).

Normalization now reads the ``$`` rows (sentinels, directive
continuations) and the ``&`` rows (statement continuation heads) of one
``LineScan`` per pass, and lowering reads one scan of the normalized lines
for the undecoded-bytes check, the unknown directives, the interface
blocks, the DC headers, the structural parsers and the census, making a
new one after each edit. ``lower_tree`` joins its index from the fragments
of the fact sheets ``lower_file`` built or found, where the old one
rescanned every file (``build_index``).

New must equal old in the lowered lines, the diagnostics, the census and
the ``ModuleIndex``: on the seven version trees saved to disk, on the
16,000-line tree the ``lint_tree`` benchmark lints, on the external and
interproc corpora, and on generated files with CRLF endings, tabs,
trailing blanks, ``&`` in comments, continued statements and directives
(``!$acc&``, ``!$acc &`` and a bare sentinel), ``!$omp`` lines, interface
blocks spelled with the ``ı`` and ``İ`` that ``re.I`` reads as ``i``,
unknown directives, bad DC headers, constructs the structural parsers
reject, fixed form and bytes that are not UTF-8.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import facts
from repro.codes import CodeVersion
from repro.fortran import generate_mas_codebase, save_tree
from repro.fortran.codebase import MAS_BUDGET
from repro.fortran.frontend import load_external_tree, lower_tree, normalize_file
from repro.fortran.frontend.lower import FrontendResult
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase, SourceFile
from tests.fortran import reference_frontend as ref

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def answers(res: FrontendResult):
    """Everything the front end hands on: lines, diagnostics, census, index."""
    lines = [(f.name, f.lines) for f in res.codebase.files]
    return lines, res.diagnostics, res.census, res.index


def fronts_agree(cb: Codebase) -> FrontendResult:
    """Lower two copies of ``cb``, old and new; the new result."""
    new = lower_tree(cb.copy())
    assert answers(new) == answers(ref.lower_tree(cb.copy())), cb.name
    return new


def loads_agree(path: Path) -> FrontendResult:
    new = load_external_tree(path)
    assert answers(new) == answers(ref.load_external_tree(path)), path.name
    return new


# -- the trees -----------------------------------------------------------------


@pytest.fixture(scope="module")
def saved_versions(tmp_path_factory) -> Path:
    """The seven version trees, each saved to its own directory."""
    root = tmp_path_factory.mktemp("versions")
    code1 = generate_mas_codebase()
    for v in CodeVersion:
        save_tree(build_version(v, code1=code1), root / v.name)
    return root


class TestTreesEqualPerLinePasses:
    @pytest.mark.parametrize("version", [v.name for v in CodeVersion])
    def test_each_saved_version_tree(self, saved_versions, version):
        res = loads_agree(saved_versions / version)
        assert res.index.routines and res.census.total_lines > 60000

    def test_the_lint_tree_benchmark_tree(self, tmp_path):
        budget = replace(MAS_BUDGET, total_lines_code1=16000)
        save_tree(generate_mas_codebase(budget), tmp_path / "tree")
        res = loads_agree(tmp_path / "tree")
        assert res.census.total_lines == 16000 and res.census.opaque_lines == 0
        assert sum(len(r) for r in res.index.use_edges.values()) > 0

    @pytest.mark.parametrize("corpus", ["external", "interproc"])
    def test_each_corpus(self, corpus):
        res = loads_agree(FIXTURES / corpus)
        assert res.census.total_lines > 0
        if corpus == "external":  # it degrades, joins and skips interfaces
            assert res.diagnostics and res.census.opaque_lines > 0
            assert sum(f.joined_lines for f in res.census.files) > 0


# -- generated files -----------------------------------------------------------

#: Lines for every pass: continued statements and directives, sentinels
#: in every case, interface blocks, unknown directives, bad DC headers,
#: constructs without their ends, fixed-form markers and an undecoded byte.
FRAGMENTS = [
    "subroutine s(a, n)", "end subroutine s", "module m", "end module m", "contains",
    "  use m", "  use m, only: g => gain", "  integer :: i, n", "  real(8) :: a(n), s",
    "  function f(x) result(y)", "  end function f", "  call f(a, n)",
    "!$acc parallel loop", "!$ACC PARALLEL LOOP GANG &", "!$Acc Parallel &",
    "!$acc parallel loop &", "!$acc& default(present)", "!$acc & async(1)",
    "!$acc vector", "!$ACC& COLLAPSE(2)", "!$acc&", "  !$acc loop &",
    "!$acc end parallel loop", "!$acc parallel", "!$acc end parallel", "!$acc loop",
    "!$acc kernels", "!$acc end kernels", "!$acc kernels loop", "!$acc routine seq",
    "!$acc atomic update", "!$acc data copy(a)", "!$acc end data", "!$acc cache(a(1:8))",
    "!$acc bogus", "!$acc wait(1)", "!$omp parallel do", "!$OMP END PARALLEL DO",
    "!$omp& private(i)", "!$ x", "do i = 1, n", "enddo", "end do",
    "do concurrent (i=1:n)", "do concurrent (i=1:n", "DO CONCURRENT (i=1:n) &",
    "  & reduce(+:s)", "  a(i) = a(i) + &", "  & b(i)", "  b(i) = 2 * &", "     & + 1.0",
    "  x = 1 ! & in a comment", "! a comment &", "  y = 2 !&", "  call f(a, &",
    "  &  n)", "  s = s + a(i)", "  a(i) = 0.0", "", "&", "  & ! only a comment",
    "interface", "  INTERFACE solve", "  abstract interface", "  subroutine ext(x)",
    "  end subroutine", "end interface", "  END INTERFACE solve", "  endinterface",
    "  x = interface_count", "c     fixed-form comment", "* star comment",
    "     &  + 2.0", "     1  continued", "C", "  x = 'caf\udce9'", "\udcff",
]

#: The letters ``re.I`` folds a non-ASCII letter onto, and those letters.
LOOKALIKES = {"s": "ſ", "S": "ſ", "i": "ıİ", "I": "ıİ", "k": "K", "K": "K"}


@st.composite
def physical_lines(draw) -> str:
    """A fragment with flipped case, a look-alike letter, a tab, trailing
    blanks or a carriage return, as the file on disk may hold it."""
    line = draw(st.sampled_from(FRAGMENTS))
    if draw(st.booleans()):
        flips = draw(st.integers(0, 2**16 - 1))
        line = "".join(
            ch.swapcase() if flips >> (k % 16) & 1 else ch for k, ch in enumerate(line)
        )
    spots = [k for k, ch in enumerate(line) if ch in LOOKALIKES]
    if spots and draw(st.booleans()):
        at = draw(st.sampled_from(spots))
        line = line[:at] + draw(st.sampled_from(LOOKALIKES[line[at]])) + line[at + 1:]
    if draw(st.booleans()):  # a tab somewhere: its width depends on the column
        at = draw(st.integers(0, len(line)))
        line = line[:at] + "\t" + line[at:]
    line += draw(st.sampled_from(["", "", " ", "  \t", "\r", " \r", "\t\r"]))
    return line


@st.composite
def codebases(draw) -> Codebase:
    """One or two files, free or fixed form."""
    names = draw(st.sampled_from([["t.f90"], ["t.f"], ["a.f90", "b.F"]]))
    return Codebase("t", [
        SourceFile(name, draw(st.lists(physical_lines(), max_size=16)))
        for name in names
    ])


class TestGeneratedFiles:
    @given(codebases())
    @settings(max_examples=500, deadline=None)
    def test_front_end(self, cb):
        fronts_agree(cb)

    @given(st.lists(physical_lines(), max_size=16), st.sampled_from(["t.f90", "t.f"]))
    @settings(max_examples=300, deadline=None)
    def test_normalize(self, lines, name):
        new, old = SourceFile(name, list(lines)), SourceFile(name, list(lines))
        assert normalize_file(new) == ref.normalize_file(old)
        assert new.lines == old.lines


#: Directed files, each reaching one path of the front end.
DIRECTED = {
    "empty": [],
    "crlf-tabs-trailing": ["subroutine s(a, n)\r", "\tinteger :: i, n  ", "x\t= 1\t\r",
                           "end subroutine s \r"],
    "continued-statement": ["  call f(a, &", "! between", "", "  &  n, &", "  m)",
                            "  x = 1 ! & not a head"],
    "continued-directives": ["!$ACC PARALLEL LOOP &", "!$acc collapse(2) &",
                             "!$acc & default(present)", "do i = 1, n", "do j = 1, n",
                             "  a(i, j) = 0", "enddo", "enddo"],
    "dangling-directive-continuation": ["!$acc parallel loop &", "do i = 1, n", "enddo"],
    "omp": ["!$OMP PARALLEL DO &", "!$omp& private(i)", "do i = 1, n", "enddo"],
    "interface-lookalike": ["module m", "ınterface", "  subroutine ext(x)",
                            "  end subroutine", "end İnterface", "end module m"],
    "unterminated-interface": ["interface", "  subroutine ext(x)"],
    "unknown-directive": ["subroutine s(a)", "!$acc cache(a(1:8))", "!$acc parallel loop",
                          "do i = 1, n", "  a(i) = 0", "enddo", "end subroutine s"],
    "bad-dc-header": ["do concurrent (i=1:n", "  a(i) = 0", "enddo"],
    "repaired-construct": ["!$acc parallel", "do i = 1, n", "  a(i) = 0",
                           "!$acc end parallel"],
    "degraded": ["subroutine s(a)", "!$acc parallel", "!$acc loop", "do i = 1, n",
                 "  a(i) = 0", "enddo", "end subroutine s"],
    "undecoded": ["subroutine s()", "  x = 'caf\udce9'", "end subroutine s"],
}


class TestDirectedFiles:
    @pytest.mark.parametrize("name", DIRECTED)
    def test_free_and_fixed_form(self, name):
        for suffix in ("f90", "f"):
            fronts_agree(Codebase("t", [SourceFile(f"t.{suffix}", DIRECTED[name])]))

    def test_the_directed_files_reach_every_path(self):
        cb = Codebase("t", [SourceFile(f"{n}.f90", ls) for n, ls in DIRECTED.items()])
        res = fronts_agree(cb)
        said = {(d.file, d.message.split(":")[0]) for d in res.diagnostics}
        assert said == {
            ("unknown-directive.f90", "unsupported directive"),
            ("bad-dc-header.f90", "unsupported do concurrent header"),
            ("repaired-construct.f90", "unsupported construct"),
            ("degraded.f90", "whole file degraded to opaque"),
            ("undecoded.f90", "bytes that are not UTF-8, kept as they are"),
        }
        census = {f.name: f for f in res.census.files}
        assert census["interface-lookalike.f90"].opaque_lines == 4
        assert census["continued-statement.f90"].joined_lines == 2
        assert res.index.modules == {"m": "interface-lookalike.f90"}
        assert res.index.routines["s"].file == "crlf-tabs-trailing.f90"

    def test_a_file_whose_analysis_fails_is_indexed_as_degraded(self):
        """A fact sheet that raises degrades its file; the index then holds
        what the degraded lines define, as a fresh scan finds it."""
        checked = facts.FileFacts.checked

        def fails_for_s(sheet):
            if sheet.index.routines and sheet.index.routines[0].name == "s":
                raise RuntimeError("analysis failed")
            return checked(sheet)

        lines = ["subroutine s(a)", "  a = 0", "end subroutine s",
                 "subroutine t(b)", "  b = 1", "end subroutine t"]
        cb = Codebase("t", [SourceFile("s.f90", lines[:3]), SourceFile("t.f90", lines[3:])])
        with mock.patch.object(facts.FileFacts, "checked", fails_for_s):
            res = fronts_agree(cb)
        assert [d.message for d in res.diagnostics] == [
            "whole file degraded to opaque: analysis failed (RuntimeError)"
        ]
        assert set(res.index.routines) == {"t"}
