"""Real-Fortran front end: normalization, lowering, symbol resolution."""

from repro.fortran.frontend import (
    load_external_tree,
    lower_tree,
    normalize_file,
    restore_opaque,
)
from repro.fortran.frontend.lower import OPAQUE_PREFIX
from repro.fortran.frontend.normalize import FILLER_PREFIX
from repro.fortran.source import Codebase, SourceFile
from tests.fortran.reference_frontend import build_index


def _file(*lines):
    return SourceFile("t.f90", list(lines))


def _lower(*lines):
    return lower_tree(Codebase("t", [_file(*lines)]))


class TestNormalize:
    def test_crlf_tabs_trailing_whitespace(self):
        f = _file("  x = 1   \r", "\ty = 2 \t \r")
        normalize_file(f)
        assert f.lines == ["  x = 1", "    y = 2"]

    def test_sentinel_lowercased(self):
        f = _file("!$ACC PARALLEL LOOP default(present)")
        normalize_file(f)
        assert f.lines == ["!$acc parallel loop default(present)"]

    def test_omp_sentinel_untouched(self):
        f = _file("!$OMP PARALLEL DO")
        normalize_file(f)
        assert f.lines == ["!$OMP PARALLEL DO"]

    def test_statement_continuation_joined_preserving_count(self):
        f = _file("a = b &", "  + c &", "  + d", "y = 1")
        joined = normalize_file(f)
        assert joined == 2
        assert f.lines == [
            "a = b + c + d", f"{FILLER_PREFIX}1", f"{FILLER_PREFIX}1", "y = 1",
        ]

    def test_leading_ampersand_continuation(self):
        f = _file("a = b   &", "     & + c")
        normalize_file(f)
        assert f.lines[0] == "a = b + c"

    def test_comment_between_continuations(self):
        f = _file("a = b &", "! note", "  + c")
        normalize_file(f)
        assert f.lines == ["a = b + c", "! note", f"{FILLER_PREFIX}1"]

    def test_directive_continuation_canonicalized(self):
        f = _file("!$acc parallel loop &", "!$acc   collapse(2)")
        normalize_file(f)
        assert f.lines == ["!$acc parallel loop", "!$acc& collapse(2)"]

    def test_directive_continuation_ampersand_form_kept(self):
        f = _file("!$acc parallel loop &", "!$acc&  async(1)")
        normalize_file(f)
        assert f.lines == ["!$acc parallel loop", "!$acc&  async(1)"]


class TestFixedForm:
    """Column-discipline handling for ``.f``/``.for``/``.f77`` sources."""

    @staticmethod
    def _ffile(*lines):
        return SourceFile("legacy.f", list(lines))

    def test_suffix_gate(self):
        from repro.fortran.frontend.normalize import is_fixed_form

        assert is_fixed_form("a.f")
        assert is_fixed_form("A.FOR")
        assert is_fixed_form("a.f77")
        assert not is_fixed_form("a.f90")
        assert not is_fixed_form("a.F90")

    def test_column_one_comment_markers(self):
        f = self._ffile(
            "c plain comment",
            "C ****** banner",
            "* starred comment",
            "      x = 1",
        )
        normalize_file(f)
        assert f.lines == [
            "! plain comment",
            "! ****** banner",
            "! starred comment",
            "      x = 1",
        ]

    def test_contains_and_call_in_column_one_stay_code(self):
        f = self._ffile("contains", "call foo", "c")
        normalize_file(f)
        assert f.lines == ["contains", "call foo", "!"]

    def test_column_six_continuation_joined_with_filler(self):
        f = self._ffile(
            "      x = a",
            "     &  + b",
            "      y = 2",
        )
        joined = normalize_file(f)
        assert joined == 1
        assert f.lines == [
            "      x = a + b", f"{FILLER_PREFIX}1", "      y = 2",
        ]

    def test_continuation_walks_back_over_comments(self):
        f = self._ffile(
            "      x = a",
            "c interleaved remark",
            "     1  + b",
        )
        normalize_file(f)
        assert f.lines == [
            "      x = a + b",
            "! interleaved remark",
            f"{FILLER_PREFIX}1",
        ]

    def test_column_six_zero_is_not_a_continuation(self):
        f = self._ffile("      x = a", "     0y = 2")
        assert normalize_file(f) == 0
        assert f.lines[1] == "     0y = 2"

    def test_alphabetic_column_six_is_code_not_continuation(self):
        # a free-form-style statement indented five spaces must survive
        f = self._ffile("      x = a", "     yval = 2")
        assert normalize_file(f) == 0
        assert f.lines[1] == "     yval = 2"

    def test_directives_never_treated_as_continuations(self):
        f = self._ffile(
            "      x = a",
            "!$acc parallel loop default(present)",
        )
        assert normalize_file(f) == 0
        assert f.lines[1] == "!$acc parallel loop default(present)"

    def test_free_form_file_keeps_fixed_syntax_untouched(self):
        f = _file("c = 1", "* comment-looking line")
        normalize_file(f)
        assert f.lines[0] == "c = 1"
        # `*` at column 1 of free form is left alone (it is code context)
        assert f.lines[1] == "* comment-looking line"


class TestLower:
    def test_combined_construct_parses(self):
        res = _lower(
            "subroutine s(a, n)",
            "real(8), dimension(n) :: a",
            "integer :: i, n",
            "!$acc parallel loop default(present)",
            "do i = 1, n",
            "  a(i) = 2.0 * a(i)",
            "enddo",
            "end subroutine s",
        )
        assert res.diagnostics == []
        assert res.census.coverage == 1.0

    def test_unknown_directive_degrades_with_fe001(self):
        res = _lower(
            "subroutine s(a)",
            "real(8) :: a(8)",
            "!$acc cache(a(1:8))",
            "a(1) = 0.0",
            "end subroutine s",
        )
        assert [d.rule_id for d in res.diagnostics] == ["FE001"]
        assert res.codebase.files[0].lines[2].startswith(OPAQUE_PREFIX)
        assert res.census.opaque_lines == 1

    def test_interface_block_opaque_without_fe001(self):
        res = _lower(
            "module m",
            "interface",
            "  subroutine ext(x)",
            "    real(8) :: x",
            "  end subroutine",
            "end interface",
            "end module m",
        )
        assert res.diagnostics == []
        assert res.census.opaque_lines == 5
        assert all(
            ln.startswith(OPAQUE_PREFIX)
            for ln in res.codebase.files[0].lines[1:6]
        )

    def test_line_count_always_preserved(self):
        lines = [
            "subroutine s(a, n)",
            "real(8), dimension(n) :: a",
            "integer :: i, n",
            "!$acc parallel loop &",
            "!$acc&  default(present)",
            "do i = 1, n",
            "  a(i) = a(i) &",
            "       + 1.0",
            "enddo",
            "!$acc weird_thing(a)",
            "end subroutine s",
        ]
        res = _lower(*lines)
        assert res.codebase.files[0].line_count == len(lines)

    def test_unterminated_region_degrades_not_raises(self):
        res = _lower(
            "subroutine s(a, n)",
            "integer :: i, n",
            "real(8) :: a(n)",
            "!$acc parallel",
            "!$acc loop",
            "do i = 1, n",
            "  a(i) = 0.0",
            "enddo",
            "end subroutine s",
        )
        assert any(d.rule_id == "FE001" for d in res.diagnostics)

    def test_restore_opaque_roundtrip(self):
        original = "    call mystery_routine(a, b)"
        assert restore_opaque(f"{OPAQUE_PREFIX}{original}") == original
        assert restore_opaque("  x = 1") == "  x = 1"

    def test_opaque_keeps_original_indentation(self):
        res = _lower(
            "module m",
            "interface",
            "    subroutine ext(x)",
            "  end subroutine",
            "end interface",
            "end module m",
        )
        restored = [restore_opaque(ln) for ln in res.codebase.files[0].lines]
        assert restored[2] == "    subroutine ext(x)"


class TestResolve:
    CB = Codebase("t", [
        SourceFile("a.f90", [
            "module phys",
            "  use number_types",
            "contains",
            "  function half(x) result(y)",
            "!$acc routine seq",
            "    real(8) :: x, y",
            "    y = 0.5 * x",
            "  end function half",
            "end module phys",
        ]),
        SourceFile("b.f90", [
            "module number_types",
            "  implicit none",
            "end module number_types",
        ]),
        SourceFile("c.f90", [
            "subroutine driver()",
            "  use phys",
            "  use missing_mod",
            "  call helper()",
            "end subroutine driver",
            "subroutine helper()",
            "end subroutine helper",
        ]),
    ])

    def test_modules_and_uses(self):
        idx = build_index(self.CB)
        assert idx.modules == {"phys": "a.f90", "number_types": "b.f90"}
        assert idx.uses["a.f90"] == ["number_types"]
        assert idx.uses["c.f90"] == ["phys", "missing_mod"]

    def test_unresolved_use_recorded(self):
        idx = build_index(self.CB)
        assert ("c.f90", 2, "missing_mod") in idx.unresolved_uses

    def test_acc_routine_detection(self):
        idx = build_index(self.CB)
        half = idx.resolve_call("HALF")
        assert half is not None and half.acc_routine
        assert half.kind == "function" and half.module == "phys"

    def test_plain_subroutine_resolution(self):
        idx = build_index(self.CB)
        helper = idx.resolve_call("helper")
        assert helper is not None and not helper.acc_routine
        assert helper.file == "c.f90"


class TestLoadExternalTree:
    def test_loads_nested_and_mixed_suffixes(self, tmp_path):
        (tmp_path / "sub").mkdir()
        (tmp_path / "main.f90").write_text(
            "program p\nend program p\n"
        )
        (tmp_path / "sub" / "old.f").write_text(
            "module old\nend module old\n"
        )
        res = load_external_tree(tmp_path)
        assert [f.name for f in res.codebase.files] == ["main.f90", "sub/old.f"]

    def test_crlf_file_lowered_clean(self, tmp_path):
        (tmp_path / "w.f90").write_text(
            "subroutine s(a, n)\r\ninteger :: i, n\r\nreal(8) :: a(n)\r\n"
            "!$acc parallel loop default(present)\r\ndo i = 1, n\r\n"
            "  a(i) = 1.0\r\nenddo\r\nend subroutine s\r\n"
        )
        res = load_external_tree(tmp_path)
        assert res.diagnostics == []
        assert res.census.coverage == 1.0
