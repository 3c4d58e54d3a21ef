"""The porter's keyword-gated scans against the per-line scans they
replaced (``reference_scans``).

Each scan now visits only the lines a ``str.find`` over the file's joined
(and, for a case-insensitive keyword, lower-cased) text finds, then
classifies them as before. New must equal old, result or error, on every
file of the seven version trees and the shipped corpora, and on generated
files that flip the case of keywords, hide them in comments, put an ``İ``
(whose ``lower()`` is two characters) before them, and end without a
newline.
"""

from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fixtures
from repro.codes import CodeVersion
from repro.fortran import generate_mas_codebase, parser
from repro.fortran.frontend import load_external_tree
from repro.fortran.parser import LineScan, apply_edits
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms import PureDcPass
from repro.fortran.transforms import dc2x, pure_dc, unified_mem
from tests.fortran import reference_scans as ref

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def outcome(fn, lines):
    """What a scan returns for ``lines``, or the error it raises."""
    try:
        return fn(list(lines))
    except (ValueError, IndexError) as exc:
        return (type(exc).__name__, str(exc))


def _edited(edit, lines):
    f = SourceFile("t.f90", lines)
    edit(f)
    return f.lines


def _routine_edits(f):
    apply_edits(f, PureDcPass()._routine_edits(f, LineScan(f.lines)))


def _strip_glue(f):
    drop = set(unified_mem.glue_rows(LineScan(f.lines)))
    f.lines = [ln for i, ln in enumerate(f.lines) if i not in drop]


def _subroutines(find, pattern=None):
    def blocks(lines):
        return [(b.start, b.end, b.name) for b in find(SourceFile("t.f90", lines), pattern)]
    return blocks


#: name -> (new, old), each a function of a file's lines.
SCANS = {
    "atomic_dc_loops": (
        lambda lines: list(pure_dc.atomic_dc_loops(lines)),
        lambda lines: list(ref.atomic_dc_loops(lines)),
    ),
    "drop_legacy_paths": (
        lambda lines: _edited(dc2x.drop_legacy_paths, lines),
        lambda lines: _edited(ref.drop_legacy_paths, lines),
    ),
    "strip_glue": (
        lambda lines: _edited(_strip_glue, lines),
        lambda lines: _edited(ref.strip_glue, lines),
    ),
    "drop_routine_directives": (
        lambda lines: _edited(_routine_edits, lines),
        lambda lines: _edited(
            lambda f: ref.drop_routine_directives(Codebase("t", [f])), lines
        ),
    ),
    "find_subroutines": (
        _subroutines(parser.find_subroutines),
        _subroutines(ref.find_subroutines),
    ),
    "find_subroutines_cpu": (
        _subroutines(parser.find_subroutines, r"_cpu$"),
        _subroutines(ref.find_subroutines, r"_cpu$"),
    ),
}


def _inlined(inline, cb: Codebase):
    cb = cb.copy()
    try:
        inline(cb)
    except (ValueError, IndexError) as exc:
        return (type(exc).__name__, str(exc))
    return [(f.name, f.lines) for f in cb.files]


def manual_inline_agrees(cb: Codebase) -> bool:
    return _inlined(PureDcPass()._manual_inline, cb) == _inlined(ref.manual_inline, cb)


# -- the trees -----------------------------------------------------------------


@pytest.fixture(scope="module")
def trees() -> list[Codebase]:
    code1 = generate_mas_codebase()
    return [
        *(build_version(v, code1=code1) for v in CodeVersion),
        fixtures.seeded_bug_codebase(),
        load_external_tree(FIXTURES / "interproc", name="interproc").codebase,
        load_external_tree(FIXTURES / "external", name="external").codebase,
    ]


class TestScansEqualPerLineScans:
    @pytest.mark.parametrize("name", SCANS)
    def test_on_every_file_of_every_tree(self, trees, name):
        new, old = SCANS[name]
        moved = 0
        for cb in trees:
            for f in cb.files:
                got = outcome(new, f.lines)
                assert got == outcome(old, f.lines), (cb.name, f.name)
                moved += bool(got) and got != f.lines
        assert moved > 0  # every scan finds or removes something somewhere

    def test_manual_inline_on_every_tree(self, trees):
        for cb in trees:
            assert manual_inline_agrees(cb), cb.name
        code1 = trees[1]
        assert _inlined(PureDcPass()._manual_inline, code1) != _inlined(lambda cb: None, code1)


# -- generated files -----------------------------------------------------------

#: Lines the five scans look for, in several cases, plus near-misses: the
#: keyword in a comment or inside a longer name, and malformed constructs
#: (an unknown directive, an ``if`` without its ``endif``).
FRAGMENTS = [
    "      do concurrent (i=1:n)", "      DO CONCURRENT (i=1:n, j=1:m)",
    "      Do Concurrent(k=1:2) reduce(+:s)", "      do i=1,n", "      enddo",
    "      END DO", "! concurrent only in a comment",
    "!$acc atomic update", "!$ACC ATOMIC", "        a(i) = a(i) + b(i)",
    "        x = y", "!$acc routine seq", "!$ACC ROUTINE", "!$Acc Routine(f) seq",
    "! !$acc routine in a comment", "      routine_count = 1", "!$acc bogus",
    "!$acc& present(a)", "!$acc enter data copyin(a)",
    "      call load_gpu_buffer(a)", "      Call Load_GPU_Buffer(a)",
    "      CALL UNLOAD_GPU_BUFFER(b)", "! call load_gpu_buffer(a)",
    "      n = load_gpu_buffer_size", "      if (.not. gpu_managed) then",
    "      IF (.NOT. GPU_MANAGED) THEN", "      endif", "! gpu_managed only in a comment",
    "      call interp1(a, b, c, i, j, k)", "      Call interp1(a, b, c, i, j, k)",
    "      call interp1(a)", "! call interp1(a, b, c, i, j, k)",
    "  subroutine setup_cpu()", "  end subroutine setup_cpu", "  SUBROUTINE SOLVE(x)",
    "  END SUBROUTINE SOLVE", "! subroutine only in a comment", "", "İ",
]

#: The manually inlined routine, so generated calls have something to inline.
INTERP1 = SourceFile("interp.f90", [
    "  pure subroutine interp1(x, y, z, i, j, k)",
    "!$acc routine seq",
    "    real, intent(in)  :: x(:,:,:), y(:,:,:)",
    "    real, intent(out) :: z(:,:,:)",
    "    integer, intent(in) :: i, j, k",
    "    z(i,j,k) = x(i,j,k) + y(i,j,k)",
    "    z(i,j,k) = z(i,j,k) * 0.5",
    "    z(i,j,k) = max(z(i,j,k), 0.)",
    "  end subroutine interp1",
])


@st.composite
def decorated_lines(draw) -> str:
    line = draw(st.sampled_from(FRAGMENTS))
    if draw(st.booleans()):  # flip the case of single characters
        flips = draw(st.integers(0, 2**16 - 1))
        line = "".join(
            ch.swapcase() if flips >> (k % 16) & 1 else ch for k, ch in enumerate(line)
        )
    if draw(st.booleans()):  # an İ somewhere before the keyword, or after it
        at = draw(st.integers(0, len(line)))
        line = line[:at] + "İ" + line[at:]
    return line


files = st.lists(decorated_lines(), max_size=14)


class TestScansOnGeneratedFiles:
    @given(files)
    @settings(max_examples=400, deadline=None)
    def test_every_scan(self, lines):
        for name, (new, old) in SCANS.items():
            assert outcome(new, lines) == outcome(old, lines), name

    @given(files)
    @settings(max_examples=150, deadline=None)
    def test_manual_inline(self, lines):
        cb = Codebase("t", [SourceFile("calls.f90", lines), INTERP1.copy()])
        assert manual_inline_agrees(cb)

    def test_a_second_call_after_an_inlined_one(self):
        calls = ["      call interp1(a, b, c, i, j, k)", "      x = 1",
                 "      call interp1(p, q, r, i, j, k)"]
        cb = Codebase("t", [SourceFile("calls.f90", calls), INTERP1.copy()])
        assert manual_inline_agrees(cb)
        assert len(_inlined(PureDcPass()._manual_inline, cb)[0][1]) == 7

    @pytest.mark.parametrize("lines", [
        [],
        [""],
        ["İ" * 12, "", "", "", "", "      DO CONCURRENT (i=1:n)", "!$ACC ATOMIC",
         "        a(i) = a(i) + b(i)", "      enddo"],
        ["İ      Call Load_GPU_Buffer(a)", "      call load_gpu_buffer(b)"],
        ["!$ACC ROUTINE seq", "      x = 1", "!$acc routine seq"],
        ["      if (.not. gpu_managed) then", "      call unload_gpu_buffer(a)",
         "      endif"],
        ["      if (.not. gpu_managed) then", "      if (.not. gpu_managed) then",
         "      endif", "      x = 1"],
    ], ids=["empty", "one-empty-line", "lengthened-earlier-line",
            "keyword-on-the-last-line", "routine-case", "legacy-branch",
            "legacy-branch-inside-one"])
    def test_directed_cases(self, lines):
        for name, (new, old) in SCANS.items():
            assert outcome(new, lines) == outcome(old, lines), name


# -- the keyword search itself -------------------------------------------------

ALPHABET = "aAbBkK!$ \tİıſKΣσςßẞ"


class TestKeywordRows:
    @given(st.lists(st.text(ALPHABET, max_size=10), max_size=8),
           st.sampled_from(["a", "ab", "k", "i", "s", "!$", "$", "σ"]))
    @settings(max_examples=500, deadline=None)
    def test_rows_are_the_lines_that_contain_the_keyword(self, lines, keyword):
        scan = LineScan(lines)
        assert scan.rows(keyword) == [i for i, ln in enumerate(lines) if keyword in ln]
        assert scan.rows(keyword, fold=True) == [
            i for i, ln in enumerate(lines) if keyword in ln.lower()
        ]

    def test_a_lengthening_lower_does_not_move_a_hit(self):
        lines = ["İ" * 8, "x", "y", "z", "w", "v", "u", "t", "do concurrent (i=1:n)"]
        assert LineScan(lines).rows("concurrent", fold=True) == [8]
        assert len("\n".join(lines).lower()) > len("\n".join(lines))

    def test_directives_are_the_sentinel_lines(self):
        lines = ["!$ACC LOOP", "  x = '$'", "!$omp parallel", "  !$acc& gang", "!$acc bogus"]
        scan = LineScan(lines)
        assert list(scan.directives) == [0, 3, 4]
        assert scan.directives[4] is None
        with pytest.raises(ValueError, match="unrecognized OpenACC directive"):
            scan.directive(4)
