"""Per-pass unit behaviour on minimal source snippets."""

import pytest

from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms import (
    ConvertRegionsPass,
    PureDcPass,
    ReaddDataPass,
    UnifiedMemPass,
)
from repro.fortran.transforms.base import dc_header
from repro.fortran.transforms.convert import F2018, F202X
from repro.fortran.parser import EXPECTED_SAFETY, LineScan, parse_loop_nest


def cb_of(lines):
    return Codebase("t", [SourceFile("t.f90", list(lines))])


def by_kind(f, region):
    """The hand pipeline's verdict: what the region's directives say it is."""
    return EXPECTED_SAFETY[region.kind]


def dc_f2018():
    return ConvertRegionsPass(F2018, by_kind)


def dc_202x():
    return ConvertRegionsPass(F202X, by_kind)


PLAIN = [
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

SCALAR_RED = [
    "!$acc parallel default(present)",
    "!$acc loop collapse(2) reduction(+:s)",
    "      do j=1,n2",
    "      do i=1,n1",
    "        s = s + e(i,j)**2",
    "      enddo",
    "      enddo",
    "!$acc end parallel",
]

ARRAY_RED = [
    "!$acc parallel default(present)",
    "!$acc loop collapse(2)",
    "      do j=1,n2",
    "      do i=1,n1",
    "!$acc atomic update",
    "        sum0(i) = sum0(i) + f(i,j) * w(j)",
    "      enddo",
    "      enddo",
    "!$acc end parallel",
]


class TestDcHeader:
    def test_listing2_shape(self):
        nest = parse_loop_nest(LineScan(PLAIN), 2)
        assert dc_header(nest) == "      do concurrent (k=1:n3,j=1:n2,i=1:n1)"

    def test_clause_appended(self):
        nest = parse_loop_nest(LineScan(SCALAR_RED), 2)
        assert dc_header(nest, clause="reduce(+:s)").endswith("reduce(+:s)")


class TestDcBasic:
    def test_plain_becomes_listing2(self):
        cb = cb_of(PLAIN)
        dc_f2018().apply(cb)
        f = cb.files[0]
        assert f.lines == [
            "      do concurrent (k=1:n3,j=1:n2,i=1:n1)",
            "        a(i,j,k) = b(i,j,k)",
            "      enddo",
        ]

    def test_reductions_untouched(self):
        cb = cb_of(SCALAR_RED + ARRAY_RED)
        dc_f2018().apply(cb)
        assert cb.files[0].lines == SCALAR_RED + ARRAY_RED

    def test_routine_caller_converted(self):
        lines = list(PLAIN)
        lines[5] = "        call interp3(a, b, i, j, k)"
        cb = cb_of(lines)
        dc_f2018().apply(cb)
        assert "do concurrent" in cb.files[0].lines[0]


class TestUnifiedMem:
    def test_plain_data_removed_with_continuations(self):
        cb = cb_of(
            [
                "!$acc enter data copyin(a)",
                "!$acc& copyin(b)",
                "!$acc exit data delete(a)",
                "!$acc update host(a)",
                "      x = 1",
            ]
        )
        UnifiedMemPass().apply(cb)
        assert cb.files[0].lines == ["      x = 1"]

    def test_declare_and_its_update_kept(self):
        cb = cb_of(
            [
                "!$acc declare create(coef_tab)",
                "!$acc update device(coef_tab)",
                "!$acc update device(other)",
            ]
        )
        UnifiedMemPass().apply(cb)
        assert cb.files[0].lines == [
            "!$acc declare create(coef_tab)",
            "!$acc update device(coef_tab)",
        ]

    def test_derived_type_enter_exit_kept(self):
        cb = cb_of(
            [
                "!$acc enter data copyin(dtyp%arr)",
                "!$acc enter data copyin(plain_arr)",
            ]
        )
        UnifiedMemPass().apply(cb)
        assert cb.files[0].lines == ["!$acc enter data copyin(dtyp%arr)"]

    def test_buffer_glue_removed(self):
        cb = cb_of(
            [
                "      call load_gpu_buffer(sbuf, arr)",
                "      call mpi_sendrecv_seam(sbuf, rbuf, n)",
                "      call unload_gpu_buffer(rbuf, arr)",
            ]
        )
        UnifiedMemPass().apply(cb)
        assert cb.files[0].lines == ["      call mpi_sendrecv_seam(sbuf, rbuf, n)"]


class TestDc2x:
    def test_scalar_reduction_gets_reduce_clause(self):
        cb = cb_of(SCALAR_RED)
        dc_202x().apply(cb)
        assert cb.files[0].lines == [
            "      do concurrent (j=1:n2,i=1:n1) reduce(+:s)",
            "        s = s + e(i,j)**2",
            "      enddo",
        ]

    def test_array_reduction_keeps_atomics(self):
        """Listing 3 -> Listing 4."""
        cb = cb_of(ARRAY_RED)
        dc_202x().apply(cb)
        assert cb.files[0].lines == [
            "      do concurrent (j=1:n2,i=1:n1)",
            "!$acc atomic update",
            "        sum0(i) = sum0(i) + f(i,j) * w(j)",
            "      enddo",
        ]

    def test_wait_removed(self):
        cb = cb_of(["!$acc wait(1)", "      x = 1"])
        dc_202x().apply(cb)
        assert cb.files[0].lines == ["      x = 1"]

    def test_legacy_paths_removed(self):
        cb = cb_of(
            [
                "      if (.not. gpu_managed) then",
                "        tbuf(1) = stage_area(1)",
                "      endif",
                "      x = 1",
            ]
        )
        dc_202x().apply(cb)
        assert cb.files[0].lines == ["      x = 1"]


class TestPureDc:
    def test_listing4_to_listing5_flip(self):
        cb = cb_of(
            [
                "      do concurrent (j=1:n2,i=1:n1)",
                "!$acc atomic update",
                "        sum0(i) = sum0(i) + f(i,j) * w(j)",
                "      enddo",
            ]
        )
        PureDcPass().apply(cb)
        lines = cb.files[0].lines
        assert lines[0] == "      do concurrent (i=1:n1)"
        assert "reduce(+:tmp0)" in lines[2]
        assert "tmp0 = tmp0 + f(i,j) * w(j)" in lines[3].strip()
        assert "sum0(i) = tmp0" in lines[5]
        assert not any("!$acc" in ln for ln in lines)

    def test_non_reduction_atomics_dropped(self):
        cb = cb_of(
            [
                "      do concurrent (j=1:n2,i=1:n1)",
                "!$acc atomic write",
                "        flag(map(i,j)) = 1",
                "      enddo",
            ]
        )
        PureDcPass().apply(cb)
        assert cb.files[0].lines == [
            "      do concurrent (j=1:n2,i=1:n1)",
            "        flag(map(i,j)) = 1",
            "      enddo",
        ]

    def test_kernels_minval_expanded(self):
        cb = cb_of(
            ["!$acc kernels", "      dtm = minval(dt_arr)", "!$acc end kernels"]
        )
        PureDcPass().apply(cb)
        lines = cb.files[0].lines
        assert "do concurrent (ii=1:size(dt_arr)) reduce(min:dtm)" in lines[0]
        assert "dtm = min(dtm, dt_arr(ii))" in lines[1]

    def test_cpu_duplicates_removed_unless_kept(self):
        dup = [
            "  subroutine s_cpu(x)",
            "      x = 1",
            "  end subroutine s_cpu",
        ]
        cb = cb_of(dup)
        PureDcPass().apply(cb)
        assert cb.files[0].lines == []
        cb = cb_of(dup)
        PureDcPass(keep_cpu_duplicates=True).apply(cb)
        assert cb.files[0].lines == dup

    def test_routine_directive_dropped(self):
        cb = cb_of(["  pure subroutine f(x)", "!$acc routine seq",
                    "      x = 1", "  end subroutine f"])
        PureDcPass().apply(cb)
        assert not any("!$acc" in ln for ln in cb.files[0].lines)


class TestReaddData:
    def test_wrapper_module_budgeted(self):
        p = ReaddDataPass()
        f = p.build_wrapper_module()
        acc = sum(1 for ln in f.lines if ln.lstrip().startswith("!$acc"))
        src = f.line_count - acc
        assert acc == p.budget.acc_lines
        assert src == p.budget.src_lines

    def test_double_apply_rejected(self):
        cb = cb_of(["      x = 1"])
        p = ReaddDataPass()
        p.apply(cb)
        with pytest.raises(ValueError, match="already present"):
            p.apply(cb)

    def test_budget_consistency_validated(self):
        from repro.fortran.transforms.readd_data import WrapperBudget

        with pytest.raises(ValueError):
            WrapperBudget(arrays=10, updates=5, acc_lines=99, src_lines=100)
