"""The dispatching line classifier and the candidate-only finders against
the regex cascade and full-file scans they replaced (``reference_lexer``).

New must equal old on every line of every tree this repo generates or
ships, on a grammar of keyword heads and near-misses under case, blanks,
labels, comments and continuations, and the finders must return equal
objects (or raise the same error) on every file. The only lines left out
are the two forms the cascade got wrong, which have directed tests at the
bottom. Each equality is checked by mutation: a shorter head slice or a
head missing from the table must make it fail.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import fixtures, interproc
from repro.codes import CodeVersion
from repro.fortran import directives, generate_mas_codebase, lexer, parser
from repro.fortran.directives import DirectiveKind
from repro.fortran.frontend import build_index, load_external_tree
from repro.fortran.lexer import LineKind, classify_line
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase, SourceFile
from tests.fortran import reference_lexer as ref

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# -- the two forms classified differently on purpose ---------------------------

_GLUED_END = re.compile(r"^\s*end(subroutine|function|module)\b", re.I)


def is_bugfix_form(line: str) -> bool:
    """``endsubroutine``-style ends, and function headers the cascade's
    ``=`` guard threw out (a kind selector, or an upper-case keyword)."""
    if _GLUED_END.match(line):
        return True
    return (
        ref._FUN_START.match(line) is not None
        and "=" in line.split("!")[0].split("function")[0]
    )


def differences(lines) -> list[tuple[str, str, str]]:
    """(line, old, new) wherever the classifiers or sentinels disagree."""
    out = []
    for line in lines:
        if ref.is_directive_line(line) != directives.is_directive_line(line):
            out.append((line, "directive?", "directive?"))
        if is_bugfix_form(line):
            continue
        old, new = ref.classify_line(line), classify_line(line)
        if old is not new:
            out.append((line, old.name, new.name))
    return out


# -- the grammar ---------------------------------------------------------------

#: One or more spellings per keyword family, then the near-misses: names
#: that merely begin like a keyword, declarations, and plain statements.
CORES = [
    # do
    "do i=1,n", "do i = 1, n", "do", "do while (x < 1)", "dowhile (x)",
    "do concurrent (i=1:n)", "do concurrent(i=1:n) reduce(+:s)",
    "do 100 i=1,n", "doi = 3", "dot = 1", "do_x(i) = 2", "done = .true.",
    # end
    "enddo", "end do", "enddo outer", "end", "endif", "end if", "endwhere",
    "end interface", "end program main", "end subroutine foo",
    "end subroutine", "end function f", "end module m", "end type",
    "endsubroutine foo", "endfunction f", "endmodule m", "ending = 1",
    "end = 1", "end (1) = 2",
    # subroutine
    "subroutine foo(a, b)", "subroutine foo", "subroutine", "subroutinefoo",
    "pure subroutine foo(x)", "pure elemental subroutine foo(x)",
    "impure elemental subroutine foo", "recursive subroutine r(n)",
    "puresubroutine foo", "pure", "purex = 1", "elemental", "recursive = 2",
    # function
    "function f(x)", "function f(x) result(y)", "pure function f(x)",
    "real function f(x)", "real(8) function f(x)", "real(r_typ) function f(x)",
    "integer function idx(i)", "logical function ok()", "complex function z()",
    "character(10) function c()", "type(t) function mk()", "(8) function f(x)",
    "double precision function d(x)", "doubleprecision function d(x)",
    "elemental real function sq(x)", "recursive integer function fact(n) result(r)",
    "real(kind=8) function f(x)", "character(len=*) function c(s)",
    "pure real(kind=dp) function g(a, b)", "real(selected_real_kind(8)) function h()",
    "real(selected_real_kind(6, 37)) function h(x) result(y)",
    "integer(kind(1)) function k()", "real(f(g(1))) function deep()",
    "real(selected_real_kind(8)) :: x",
    "function_x = 1", "functionf(x)", "function", "real function",
    "real function_value", "x = my function (y)",
    # module, contains, call
    "module m", "module procedure p", "module", "modulem", "module_x = 1",
    "contains", "contains_x = 1", "contains x",
    "call foo(a)", "call foo", "call", "callfoo = 2", "call  foo (a, b)",
    "call_count = call_count + 1",
    # declarations and statements
    "dt = 1", "x = 1", "a(i,j,k) = b(i,j,k)", "if (a) call foo(b)",
    "use mod_x", "implicit none", "real :: x", "real :: function_x",
    "real(r_typ), dimension(n) :: a", "integer, parameter :: n = 3",
    "type(t) :: x", "type point", "type, public :: p", "logical :: ok",
    "complex(8) :: z", "character(len=*), intent(in) :: s",
    "double precision :: d", "(a) = 1", "interface", "abstract interface",
    "print *, x", "100 continue", "10 do i=1,n", "20 enddo",
    # comments and sentinels
    "!$acc parallel default(present)", "!$acc loop", "!$acc& copyin(a)",
    "!$acc", "!$ac", "!$ acc loop", "!$omp parallel", "! comment", "!", "",
]
INDENTS = ["", " ", "      ", "\t", "\f ", " \t  "]
TAILS = ["", " ", " ! comment", " ! x = 1", " &", "; y = 1", "! function f = 2"]
BLANKS = [" ", "  ", "\t", ""]
CASES = [str.lower, str.upper, str.title, str.swapcase]


def spell(core: str, indent: str, tail: str, blank: str, case) -> str:
    return indent + case(core.replace(" ", blank)) + tail


def grammar_lines() -> list[str]:
    """Every core under every decoration, one decoration varied at a time
    plus all of them together: the deterministic part of the grammar."""
    out = set()
    for core in CORES:
        for indent, tail, blank, case in itertools.chain(
            ((i, "", " ", str.lower) for i in INDENTS),
            (("", t, " ", str.lower) for t in TAILS),
            (("", "", b, str.lower) for b in BLANKS),
            (("", "", " ", c) for c in CASES),
            zip(INDENTS, TAILS, itertools.cycle(BLANKS), itertools.cycle(CASES)),
        ):
            out.add(spell(core, indent, tail, blank, case))
    return sorted(out)


@st.composite
def spelled_lines(draw) -> str:
    line = spell(
        draw(st.sampled_from(CORES)),
        draw(st.sampled_from(INDENTS)),
        draw(st.sampled_from(TAILS)),
        draw(st.sampled_from(BLANKS)),
        draw(st.sampled_from(CASES)),
    )
    # flip the case of single characters: mixed-case keywords
    flips = draw(st.integers(0, 2**16 - 1))
    return "".join(
        ch.swapcase() if flips >> (k % 16) & 1 else ch for k, ch in enumerate(line)
    )


# -- the trees -----------------------------------------------------------------


def _raw_fixture_files() -> list[SourceFile]:
    """The shipped corpora as written, before the front end lowers them."""
    return [
        SourceFile(str(p.relative_to(FIXTURES)), p.read_text().splitlines())
        for p in sorted(FIXTURES.rglob("*.f*"))
    ]


@pytest.fixture(scope="module")
def trees() -> list[Codebase]:
    code1 = generate_mas_codebase()
    return [
        *(build_version(v, code1=code1) for v in CodeVersion),
        fixtures.seeded_bug_codebase(),
        fixtures.clean_codebase(),
        load_external_tree(FIXTURES / "interproc", name="interproc").codebase,
        load_external_tree(FIXTURES / "external", name="external").codebase,
        Codebase("raw-fixtures", _raw_fixture_files()),
    ]


@pytest.fixture(scope="module")
def tree_lines(trees) -> list[str]:
    return sorted({ln for cb in trees for f in cb.files for ln in f.lines})


# -- classifier equality -------------------------------------------------------


class TestClassifierEqualsCascade:
    def test_on_every_line_of_every_tree(self, tree_lines):
        assert len(tree_lines) > 60_000
        assert differences(tree_lines) == []

    def test_on_the_grammar(self):
        lines = grammar_lines()
        assert differences(lines) == []
        # the exclusions stay the small, known part of the grammar
        assert sum(map(is_bugfix_form, lines)) < len(lines) // 10

    @given(spelled_lines())
    @settings(max_examples=2000, deadline=None)
    def test_on_random_spellings(self, line):
        assert differences([line]) == []

    def test_every_kind_is_exercised(self, tree_lines):
        seen = {classify_line(ln) for ln in [*tree_lines, *grammar_lines()]}
        assert seen == set(LineKind)


class TestMutationsAreCaught:
    """The equalities above must fail on the mistakes they exist to catch."""

    def test_nine_character_head_loses_every_subroutine_header(
        self, monkeypatch, tree_lines
    ):
        monkeypatch.setattr(lexer, "_HEAD_LEN", 9)
        wrong = differences(tree_lines)
        assert wrong and {(old, new) for _ln, old, new in wrong} == {
            ("SUBROUTINE_START", "STATEMENT")
        }
        assert differences(grammar_lines())

    @pytest.mark.parametrize("head", lexer._HEADS)
    def test_head_missing_from_the_table(self, monkeypatch, head):
        monkeypatch.setattr(
            lexer, "_HEADS", tuple(h for h in lexer._HEADS if h != head)
        )
        wrong = differences(grammar_lines())
        assert wrong and all(
            ln.lstrip().lower().startswith(head) for ln, _old, _new in wrong
        )

    def test_sentinel_shortcut_on_the_wrong_characters(self, monkeypatch, tree_lines):
        def lowercase_only(line: str) -> bool:
            return "!$acc" in line and ref.is_directive_line(line)

        monkeypatch.setattr(directives, "is_directive_line", lowercase_only)
        assert differences(tree_lines)  # the corpora hold !$ACC sentinels


# -- finder equality -----------------------------------------------------------


def outcome(fn, *args):
    """What a finder returns, or the error it raises."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


FINDER_CALLS = [
    ("find_parallel_regions",),
    ("find_kernels_regions",),
    ("find_subroutines",),
    ("find_directive_lines", DirectiveKind.DATA, DirectiveKind.SET_DEVICE),
    *(
        ("find_directive_lines", kind)
        for kind in DirectiveKind
        if kind is not DirectiveKind.CONTINUATION  # never standalone
    ),
]


class TestFindersEqualFullScans:
    @pytest.mark.parametrize("call", FINDER_CALLS, ids=lambda c: c[0])
    def test_on_every_file_of_every_tree(self, trees, call):
        name, *args = call
        found = raised = 0
        for cb in trees:
            for f in cb.files:
                new = outcome(getattr(parser, name), f, *args)
                assert new == outcome(getattr(ref, name), f, *args), (cb.name, f.name)
                raised += isinstance(new, tuple)
                found += 0 if isinstance(new, tuple) else len(new)
        assert found > 0
        if name in ("find_parallel_regions", "find_directive_lines"):
            assert raised > 0  # the raw corpora hold unsupported directives

    def test_region_finders_skip_what_a_combined_construct_spans(self):
        # the hop after a combined construct must land past its nest, its
        # inner directives and the optional end directive
        f = SourceFile("t.f90", [
            "!$acc parallel loop collapse(2) &",
            "!$acc& present(a)",
            "      do j=1,n",
            "      do i=1,n",
            "!$acc atomic update",
            "        a(i) = a(i) + b(i,j)",
            "      enddo",
            "      enddo",
            "!$acc end parallel loop",
            "!$acc kernels loop",
            "      do i=1,n",
            "        a(i) = 0.",
            "      enddo",
            "!$acc end kernels loop",
            "!$acc parallel default(present)",
            "!$acc loop",
            "      do i=1,n",
            "        a(i) = 1.",
            "      enddo",
            "!$acc end parallel",
        ])
        regions = parser.find_parallel_regions(f)
        assert regions == ref.find_parallel_regions(f)
        assert [(r.start, r.end) for r in regions] == [(0, 8), (14, 19)]
        kernels = parser.find_kernels_regions(f)
        assert kernels == ref.find_kernels_regions(f)
        assert [(k.start, k.end) for k in kernels] == [(9, 13)]


# -- the two bugfix forms ------------------------------------------------------

#: 21 lines: a typed function with a kind selector, and every scope closed
#: without a blank after ``end``.
GLUED = SourceFile("glued.f90", [
    "module glued",                              # 0
    "  implicit none",
    "  real(kind=8) :: total",
    "contains",
    "  pure real(kind=8) function sq(x)",        # 4
    "    real(kind=8), intent(in) :: x",
    "    sq = x * x",
    "  endfunction sq",                          # 7
    "  subroutine run(a, n)",                    # 8
    "    integer, intent(in) :: n",
    "    real(kind=8), intent(inout) :: a(n)",
    "    integer :: i",
    "    do i=1,n",
    "      a(i) = sq(a(i))",
    "    enddo",
    "  endsubroutine run",                       # 15
    "  subroutine finish()",                     # 16
    "    total = 0.",
    "  end subroutine finish",                   # 18
    "endmodule glued",                           # 19
    "",
])


class TestBugfixForms:
    @pytest.mark.parametrize("line", [
        "real(kind=8) function f(x)",
        "character(len=*) function c(s)",
        "  pure real(kind=dp) function g(a, b)",
        "      REAL(KIND=8) FUNCTION F(X)",
    ])
    def test_typed_function_header_with_kind_selector(self, line):
        assert classify_line(line) is LineKind.FUNCTION_START
        assert ref.classify_line(line) is LineKind.STATEMENT  # the old bug
        assert is_bugfix_form(line)

    def test_an_assignment_mentioning_function_stays_a_statement(self):
        assert classify_line("x = my function (y)") is LineKind.STATEMENT
        assert classify_line("real :: function_x = 1") is LineKind.STATEMENT

    @pytest.mark.parametrize("line,kind", [
        ("endsubroutine run", LineKind.SUBROUTINE_END),
        ("  ENDFUNCTION", LineKind.FUNCTION_END),
        ("endmodule glued", LineKind.MODULE_END),
        ("endsubroutines = 1", LineKind.STATEMENT),
    ])
    def test_end_glued_to_its_keyword(self, line, kind):
        assert classify_line(line) is kind
        assert ref.classify_line(line) is LineKind.STATEMENT

    @pytest.mark.parametrize("line,kind", [
        ("real(selected_real_kind(8)) function f()", LineKind.FUNCTION_START),
        ("  pure real(selected_real_kind(6, 37)) function g(x) result(y)",
         LineKind.FUNCTION_START),
        ("real(f(g(1))) function deep()", LineKind.STATEMENT),  # one level only
        ("end", LineKind.SUBROUTINE_END),
        ("      END  ! of run", LineKind.SUBROUTINE_END),
        ("end &", LineKind.STATEMENT),
        ("end = 1", LineKind.STATEMENT),
    ])
    def test_bare_end_and_a_call_in_the_kind_selector(self, line, kind):
        """The two shapes both classifiers called statements; the oracle
        learned them with the classifier, so the grammar covers them."""
        assert classify_line(line) is kind
        assert ref.classify_line(line) is kind

    def test_a_bare_end_closes_the_routine_being_inlined(self):
        from repro.fortran.inline import parse_routine

        f = SourceFile("bare.f90", [
            "      subroutine axpy(a, x, y)",
            "      real(selected_real_kind(8)) :: a, x, y",
            "      y = y + a * x",
            "      end",
        ])
        assert parse_routine(f, 0).body == ("      y = y + a * x",)
        header = parser.parse_procedure_header(
            "real(selected_real_kind(8)) function f(x) result(y)"
        )
        assert (header.name, header.dummies, header.result) == ("f", ("x",), "y")

    def test_a_bare_end_closes_the_routine_in_the_index(self):
        cb = Codebase("bare", [SourceFile("bare.f90", [
            "      subroutine legacy(x)",
            "      real :: x",
            "      x = 1.0",
            "      END  ! of legacy",
            "      subroutine after(y)",
            "      real :: y",
            "      y = 2.0",
            "      end subroutine after",
        ])])
        index = build_index(cb)
        assert {n: (s.line, s.end_line, s.parent) for n, s in index.routines.items()} == {
            "legacy": (0, 3, ""), "after": (4, 7, ""),
        }

    def test_find_subroutines_closes_each_routine(self):
        blocks = parser.find_subroutines(GLUED)
        assert [(b.name, b.start, b.end) for b in blocks] == [
            ("run", 8, 15), ("finish", 16, 18),
        ]
        # the full-scan oracle kept ``run`` open and swallowed ``finish``
        assert [(b.name, b.end) for b in ref.find_subroutines(GLUED)] == [("run", 18)]

    def test_index_and_summaries_hold_every_routine(self):
        cb = Codebase("glued", [GLUED.copy()])
        index = build_index(cb)
        assert set(index.routines) == {"sq", "run", "finish"}
        sq = index.routines["sq"]
        assert (sq.kind, sq.line, sq.end_line, sq.module) == ("function", 4, 7, "glued")
        assert sq.declared_pure
        assert index.routines["run"].end_line == 15
        assert index.modules == {"glued": "glued.f90"}
        interproc.clear_summary_cache()
        result = interproc.summarize(cb)
        assert result.summaries["sq"].purity is interproc.Purity.PURE
        assert "glued::total" in result.summaries["finish"].globals_written
