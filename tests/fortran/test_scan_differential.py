"""The keyword-gated scans against the per-line scans they replaced
(``reference_scans``): the porter's, and the analyzer's summary inputs.

Each scan now visits only the lines a ``str.find`` over the file's joined
(and, for a case-insensitive keyword, lower-cased) text finds, then
classifies them as before. New must equal old, result or error, on every
file of the seven version trees and the shipped corpora (and, for the
summary inputs, the generated tree the ``lint_tree`` benchmark lints), and
on generated files that flip the case of keywords, hide them in comments,
put an ``İ`` (whose ``lower()`` is two characters) before them, spell a
letter as the ``ſ``, ``ı``, ``K`` or ``İ`` that ``re.I`` folds onto it,
and end without a newline.

The summary inputs (each file's index fragment, call sites, routine
blocks and module variables) are compared whole; each routine's effect
scan is compared inside a real summary pass, with the visible module
variables and callee summaries that pass gives it. The intended
differences, a module variable whose name, comment, type spec or attribute
expression holds ``parameter``, are pinned in
``tests/analysis/test_interproc.py``; generated lines say ``parameter``
only as an attribute, and put no ``İ`` into such a line's attribute list.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import facts, fixtures, interproc
from repro.codes import CodeVersion
from repro.fortran import generate_mas_codebase, parser, save_tree
from repro.fortran.codebase import MAS_BUDGET
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
    # the summary inputs: modules, interfaces, use edges, headers, ends
    "module knobs", "  MODULE Knobs", "  module procedure bump", "end module knobs",
    "  END MODULE", "contains", "  CONTAINS", "  interface", "  abstract interface",
    "  INTERFACE solve", "  end interface", "  use knobs", "  use knobs, only: gain",
    "  use knobs, only: g => gain", "  USE, intrinsic :: iso_fortran_env",
    "  pure function f(x) result(y)", "  real(kind=8) function g(a, b)",
    "  elemental subroutine h(a)", "  subroutine bump(a, b)", "  end function f",
    "  end subroutine bump", "  end", "! use and module only in a comment",
    # declarations (`parameter` only as an attribute)
    "  real :: gain, nsteps(3)", "  integer, intent(in) :: a",
    "  real, intent(inout) :: b(:)", "  real, parameter :: pi = 3.14",
    "  REAL, PARAMETER :: tau = 6.28", "  type(state_t), intent(out) :: s",
    "  real, allocatable :: buf(:)", "  integer :: k ! a comment :: here",
    # effects, bare and behind a one-line if, and statements near them
    "  write(*,*) gain", "  print *, a", "  read(5, *) b", "  open(unit=7, file='x')",
    "  close(7)", "  backspace 7", "  flush(7)", "  inquire(unit=7, opened=b)",
    "  rewind 7", "  endfile 7", "  stop", "  error stop 'bad'", "  STOP 1",
    "  allocate(buf(10))", "  deallocate(buf)", "  DEALLOCATE (gain)",
    "  if (a > 0) stop", "  if (b(1) < 0) write(*,*) b", "  if (a == 1) call bump(a, b)",
    "  if (a == 2) gain = 0", "  if (a .eq. 3) allocate(buf(3))", "  gain = gain + a",
    "  nsteps(1) = 2", "  b = a * pi", "  call bump(gain, a)", "  writes = 1",
    "  stopped = gain", "  reader = k",
]

#: The letters ``re.I`` folds a non-ASCII letter onto, and those letters.
LOOKALIKES = {"s": "ſ", "S": "ſ", "i": "ıİ", "I": "ıİ", "k": "K", "K": "K"}

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
        # not in a `parameter` line's attribute list: `parameterİ` named a
        # constant to the old scan and names no attribute now
        lo = line.find("::") + 2 if "parameter" in line.lower() else 0
        at = draw(st.integers(lo, len(line)))
        line = line[:at] + "İ" + line[at:]
    spots = [k for k, ch in enumerate(line) if ch in LOOKALIKES]
    if spots and draw(st.booleans()):  # one letter spelled as its look-alike
        at = draw(st.sampled_from(spots))
        line = line[:at] + draw(st.sampled_from(LOOKALIKES[line[at]])) + line[at + 1:]
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


# -- the analyzer's summary inputs ---------------------------------------------


def summary_part(file: SourceFile) -> facts.FileFacts:
    """The summary part of ``file``'s fact sheet, as the analyzer builds it."""
    return facts._summary_part(file, LineScan(file.lines))


def reference_summary_part(file: SourceFile) -> facts.FileFacts:
    """The same, from the per-line scans (the call sites read rows already)."""
    index = ref.index_fragment(file)
    calls = facts._call_sites(file, LineScan(file.lines))
    blocks = tuple(ref._scan_block(file, sym, calls) for sym in index.routines)
    return facts.FileFacts(
        file.name, index, calls, blocks, ref._file_module_variables(file)
    )


def summary_parts_agree(cb: Codebase) -> None:
    for f in cb.files:
        assert summary_part(f) == reference_summary_part(f), (cb.name, f.name)


def effect_scans_agree(cb: Codebase) -> int:
    """Summarize ``cb`` from scratch, holding every effect scan equal to
    the per-line one on the same block, visible map and callee summaries;
    the number of scans."""
    scans = 0
    scan_effects = interproc._scan_effects

    def checked(cb, block, visible, callees):
        nonlocal scans
        got = scan_effects(cb, block, visible, callees)
        assert got == ref._scan_effects(cb, block, visible, callees), block.sym.name
        scans += 1
        return got

    interproc.clear_summary_cache()
    try:
        with mock.patch.object(interproc, "_scan_effects", checked):
            interproc.summarize(cb)
    finally:
        interproc.clear_summary_cache()
    return scans


@pytest.fixture(scope="module")
def lint_tree(tmp_path_factory) -> Codebase:
    """The 16,000-line tree the ``lint_tree`` benchmark lints, read back
    through the front end as the benchmark reads it."""
    root = tmp_path_factory.mktemp("lint_tree")
    budget = replace(MAS_BUDGET, total_lines_code1=16000)
    save_tree(generate_mas_codebase(budget), root / "tree")
    return load_external_tree(root / "tree").codebase


class TestSummaryInputsEqualPerLineScans:
    def test_summary_parts_on_every_file_of_every_tree(self, trees, lint_tree):
        for cb in [*trees, lint_tree]:
            summary_parts_agree(cb)
        assert sum(
            len(summary_part(f).index.routines) for f in lint_tree.files
        ) == 51

    def test_effect_scans_on_every_tree(self, trees, lint_tree):
        scans = {cb.name: effect_scans_agree(cb) for cb in [*trees, lint_tree]}
        assert scans["tree"] == 51 and scans["interproc"] > 0

    def test_the_trees_reach_what_the_gates_skip(self, trees):
        """Effects, ``!$acc routine`` lines and module variables occur; the
        generated files below add ``stop`` and ``allocate``."""
        results = [interproc.summarize(cb) for cb in trees]
        summaries = [s for r in results for s in r.summaries.values()]
        assert {"io", "global-write"} <= {e.kind for s in summaries for e in s.effects}
        assert sum(s.acc_routine for s in summaries) > 0
        assert any(vs for r in results for sheet in r.facts for _m, vs in sheet.module_vars)


@st.composite
def module_codebases(draw) -> Codebase:
    """A module with generated spec and body lines, and a file that uses
    it: each file may close early or nest, as the generated lines say."""
    chunk = st.lists(decorated_lines(), max_size=6)
    knobs = [*draw(chunk), "module knobs", *draw(chunk), "contains",
             "  subroutine bump(a, b)", *draw(chunk), "  end subroutine bump",
             *draw(chunk), "end module knobs"]
    user = ["subroutine user(x, y)", "  use knobs", *draw(chunk),
            "  call bump(x, y)", *draw(chunk), "end subroutine user", *draw(chunk)]
    return Codebase("t", [SourceFile("knobs.f90", knobs), SourceFile("user.f90", user)])


class TestSummaryInputsOnGeneratedFiles:
    @given(files)
    @settings(max_examples=300, deadline=None)
    def test_summary_parts(self, lines):
        summary_parts_agree(Codebase("t", [SourceFile("t.f90", lines)]))

    @given(module_codebases())
    @settings(max_examples=300, deadline=None)
    def test_summary_parts_and_effect_scans(self, cb):
        summary_parts_agree(cb)
        effect_scans_agree(cb)

    @pytest.mark.parametrize("body", [
        ["  ſtop"], ["  wrıte(*,*) gain"], ["  bacKspace 7"], ["  prİnt *, a"],
        ["  if (a > 0) ſtop"], ["  deallocate(gain)"], ["  eRRor ſtop 'x'"],
        ["  İ = 1", "  real :: gain"], ["  gain = 1 ! stop"],
    ], ids=["long-s", "dotless-i", "kelvin", "dotted-i", "guarded-long-s",
            "deallocate-global", "error-stop", "dotted-i-head", "comment"])
    def test_directed_bodies(self, body):
        knobs = ["module knobs", "  real :: gain", "contains", "  subroutine bump(a, b)",
                 *body, "  end subroutine bump", "end module knobs"]
        cb = Codebase("t", [SourceFile("knobs.f90", knobs)])
        summary_parts_agree(cb)
        assert effect_scans_agree(cb) == 1

    def test_a_routine_directive_after_the_declaration_part(self):
        lines = ["  subroutine f(x)", "  real :: x", "  call g(x)", "!$acc routine seq",
                 "  end subroutine f", "  subroutine e()", "  endsubroutine e",
                 "  subroutine h(y)", "  ! end", "!$ACC ROUTINE seq",
                 "  end subroutine h", "  subroutine k()", "  do i = 1, 2", "!$acc routine", "  enddo",
                 "  end subroutine k", "  subroutine m()", "  contains",
                 "!$acc routine seq", "  end subroutine m"]
        f = SourceFile("t.f90", lines)
        assert summary_part(f) == reference_summary_part(f)
        assert [s.acc_routine for s in summary_part(f).index.routines] == [
            False, False, True, False, False,
        ]


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
