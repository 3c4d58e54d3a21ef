"""Lexer line classification and structural parser."""

import pytest

from repro.fortran.lexer import LineKind, called_name, classify_line, subroutine_name
from repro.fortran.parser import (
    LineScan,
    RegionKind,
    apply_edits,
    find_directive_lines,
    find_kernels_regions,
    find_parallel_regions,
    find_subroutines,
    parse_loop_nest,
)
from repro.fortran.directives import DirectiveKind
from repro.fortran.source import Codebase, SourceFile


class TestLexer:
    @pytest.mark.parametrize(
        "line,kind",
        [
            ("", LineKind.BLANK),
            ("! comment", LineKind.COMMENT),
            ("!$acc loop", LineKind.DIRECTIVE),
            ("      do i=1,n1", LineKind.DO),
            ("      do concurrent (i=1:n1)", LineKind.DO_CONCURRENT),
            ("      enddo", LineKind.ENDDO),
            ("      end do", LineKind.ENDDO),
            ("  subroutine foo(a)", LineKind.SUBROUTINE_START),
            ("  pure subroutine bar(a)", LineKind.SUBROUTINE_START),
            ("  end subroutine foo", LineKind.SUBROUTINE_END),
            ("  endsubroutine foo", LineKind.SUBROUTINE_END),
            ("  real(kind=8) function f(x)", LineKind.FUNCTION_START),
            ("  double precision function d(x)", LineKind.FUNCTION_START),
            ("  endfunction f", LineKind.FUNCTION_END),
            ("module m", LineKind.MODULE_START),
            ("end module m", LineKind.MODULE_END),
            ("endmodule m", LineKind.MODULE_END),
            ("contains", LineKind.CONTAINS),
            ("      call interp(a, b)", LineKind.CALL),
            ("      x = y + z", LineKind.STATEMENT),
        ],
    )
    def test_classification(self, line, kind):
        assert classify_line(line) is kind

    def test_subroutine_name(self):
        assert subroutine_name("  pure subroutine smooth_cpu(x)") == "smooth_cpu"
        assert subroutine_name("      x = 1") is None

    def test_called_name(self):
        assert called_name("      call interp3(a, b)") == "interp3"


PLAIN_REGION = [
    "!$acc parallel default(present)",
    "!$acc loop collapse(3)",
    "      do k=1,n3",
    "      do j=1,n2",
    "      do i=1,n1",
    "        a(i,j,k) = b(i,j,k)",
    "      enddo",
    "      enddo",
    "      enddo",
    "!$acc end parallel",
]


class TestLoopNest:
    def test_parse_depth_and_bounds(self):
        nest = parse_loop_nest(LineScan(PLAIN_REGION), 2)
        assert nest.depth == 3
        assert nest.index_vars == ["k", "j", "i"]
        assert nest.bounds == ["1,n3", "1,n2", "1,n1"]
        assert nest.end == 8
        assert nest.body_range == (5, 5)

    def test_not_a_loop(self):
        assert parse_loop_nest(LineScan(["      x = 1"]), 0) is None

    def test_unterminated(self):
        with pytest.raises(ValueError, match="unterminated"):
            parse_loop_nest(LineScan(["      do i=1,n", "        x = 1"]), 0)


class TestRegions:
    def test_plain_region(self):
        f = SourceFile("t.f90", list(PLAIN_REGION))
        regions = find_parallel_regions(f)
        assert len(regions) == 1
        r = regions[0]
        assert r.kind is RegionKind.PLAIN
        assert (r.start, r.end) == (0, 9)
        assert len(r.loops) == 1

    def test_scalar_reduction_region(self):
        lines = list(PLAIN_REGION)
        lines[1] = "!$acc loop collapse(3) reduction(+:s)"
        f = SourceFile("t.f90", lines)
        assert find_parallel_regions(f)[0].kind is RegionKind.SCALAR_REDUCTION

    def test_array_reduction_region(self):
        lines = [
            "!$acc parallel default(present)",
            "!$acc loop collapse(2)",
            "      do j=1,n2",
            "      do i=1,n1",
            "!$acc atomic update",
            "        s(i) = s(i) + f(i,j)",
            "      enddo",
            "      enddo",
            "!$acc end parallel",
        ]
        f = SourceFile("t.f90", lines)
        r = find_parallel_regions(f)[0]
        assert r.kind is RegionKind.ARRAY_REDUCTION
        assert len(r.atomic_lines) == 1

    def test_atomic_other_region(self):
        lines = [
            "!$acc parallel default(present)",
            "!$acc loop collapse(2)",
            "      do j=1,n2",
            "      do i=1,n1",
            "!$acc atomic write",
            "        flag(map(i,j)) = 1",
            "      enddo",
            "      enddo",
            "!$acc end parallel",
        ]
        f = SourceFile("t.f90", lines)
        assert find_parallel_regions(f)[0].kind is RegionKind.ATOMIC_OTHER

    def test_routine_caller_region(self):
        lines = list(PLAIN_REGION)
        lines[5] = "        call interp3(a, b, i, j, k)"
        f = SourceFile("t.f90", lines)
        assert find_parallel_regions(f)[0].kind is RegionKind.ROUTINE_CALLER

    def test_double_region_two_loops(self):
        lines = (
            PLAIN_REGION[:1]
            + PLAIN_REGION[1:9]
            + PLAIN_REGION[1:9]
            + PLAIN_REGION[9:]
        )
        f = SourceFile("t.f90", lines)
        r = find_parallel_regions(f)[0]
        assert len(r.loops) == 2

    def test_unterminated_region(self):
        f = SourceFile("t.f90", PLAIN_REGION[:-1])
        with pytest.raises(ValueError, match="unterminated"):
            find_parallel_regions(f)

    def test_kernels_region(self):
        f = SourceFile(
            "t.f90",
            ["!$acc kernels", "      x = minval(a)", "!$acc end kernels"],
        )
        regions = find_kernels_regions(f)
        assert len(regions) == 1
        assert (regions[0].start, regions[0].end) == (0, 2)


class TestDirectiveLines:
    def test_continuations_attached(self):
        f = SourceFile(
            "t.f90",
            [
                "!$acc enter data copyin(a)",
                "!$acc& copyin(b)",
                "!$acc& copyin(c)",
                "      x = 1",
            ],
        )
        ds = find_directive_lines(f, DirectiveKind.DATA)
        assert len(ds) == 1
        assert ds[0].continuations == [1, 2]
        assert ds[0].all_lines == [0, 1, 2]

    def test_kind_filter(self):
        f = SourceFile("t.f90", ["!$acc wait(1)", "!$acc update host(a)"])
        assert len(find_directive_lines(f, DirectiveKind.WAIT)) == 1
        assert len(find_directive_lines(f, DirectiveKind.DATA)) == 1


class TestSubroutines:
    def test_find_with_pattern(self):
        f = SourceFile(
            "t.f90",
            [
                "  subroutine a_cpu(x)",
                "      x = 1",
                "  end subroutine a_cpu",
                "  subroutine b(x)",
                "      x = 2",
                "  end subroutine b",
            ],
        )
        blocks = find_subroutines(f, r"_cpu$")
        assert [b.name for b in blocks] == ["a_cpu"]
        assert (blocks[0].start, blocks[0].end) == (0, 2)


class TestApplyEdits:
    def test_bottom_up_replacement(self):
        f = SourceFile("t.f90", ["a", "b", "c", "d"])
        apply_edits(f, [(0, 0, ["A"]), (2, 3, ["CD"])])
        assert f.lines == ["A", "b", "CD"]

    def test_overlap_rejected(self):
        f = SourceFile("t.f90", ["a", "b", "c"])
        with pytest.raises(ValueError, match="overlapping"):
            apply_edits(f, [(0, 1, []), (1, 2, [])])

    def test_bad_range_rejected(self):
        f = SourceFile("t.f90", ["a"])
        with pytest.raises(ValueError):
            apply_edits(f, [(1, 0, [])])
