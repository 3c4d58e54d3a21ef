"""Synthetic MAS-like codebase generator.

Emits a Fortran codebase whose OpenACC directive census matches Table II
*exactly by construction*; the transformation passes then produce Codes
2-6 whose line counts are compared against Table I in EXPERIMENTS.md (and
asserted in tests).

The construct mix (how many plain nests, reductions, data directives,
duplicate CPU routines...) is fixed in :class:`GeneratorBudget`, derived
from Table II plus the Table I deltas: e.g. Code 1 -> Code 2 removes 918
directive lines while shrinking the code by 2204 lines, which pins the
split between 3-deep nests, 2-deep nests, and fused two-loop regions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fortran.directives import is_directive_line
from repro.fortran.parser import find_subroutines
from repro.fortran.source import Codebase, SourceFile


@dataclass(frozen=True, slots=True)
class GeneratorBudget:
    """Construct counts pinned by Tables I and II (see module docstring)."""

    plain3: int = 160          # 3-deep single-loop parallel regions
    caller3: int = 20          # same, body calls a pure routine
    plain2: int = 43           # 2-deep single-loop parallel regions
    double_regions: int = 60   # regions fusing two 3-deep loops
    double_with_cont: int = 9  # of those, regions with a continuation line
    scalar_reductions: int = 16
    array_reductions: int = 9
    atomic_other: int = 4
    kernels_regions: int = 3
    routine_defs: int = 12
    enter_data: int = 120
    exit_data: int = 120
    update_data: int = 50
    host_data_pairs: int = 10
    host_data_glue_pairs: int = 7
    enter_data_cont: int = 68
    dtype_enter_exit: int = 8   # derived-type members, kept under UM
    dtype_cont: int = 5
    wait_lines: int = 6
    dup_cpu_routines: int = 30
    dup_cpu_lines_each: int = 63
    legacy_blocks: int = 4
    legacy_lines_total: int = 204
    gpu_support_lines: int = 425
    manual_inline_body: int = 12  # stmts of the routine nvfortran refuses to inline
    wrapper_acc_lines: int = 277  # Code 6 wrapper module directives
    wrapper_src_lines: int = 462  # Code 6 wrapper module plain lines
    total_lines_code1: int = 73865


MAS_BUDGET = GeneratorBudget()


class _Emitter:
    """Accumulates lines for one synthetic file."""

    def __init__(self, name: str) -> None:
        self.file = SourceFile(name, [])

    def emit(self, *lines: str) -> None:
        self.file.lines.extend(lines)

    def module(self, name: str) -> None:
        self.emit(f"module {name}", "  use mod_types", "  implicit none", "contains")

    def end_module(self, name: str) -> None:
        self.emit(f"end module {name}")


def _plain3(e: _Emitter, ident: int, *, call: bool = False) -> None:
    body = (
        f"        call interp3(a{ident}, b{ident}, d{ident}, i, j, k)"
        if call
        else f"        a{ident}(i,j,k) = b{ident}(i,j,k) + c0 * d{ident}(i,j,k)"
    )
    e.emit(
        "!$acc parallel default(present)",
        "!$acc loop collapse(3)",
        "      do k=1,n3",
        "      do j=1,n2",
        "      do i=1,n1",
        body,
        "      enddo",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    )


def _plain2(e: _Emitter, ident: int) -> None:
    e.emit(
        "!$acc parallel default(present)",
        "!$acc loop collapse(2)",
        "      do j=1,n2",
        "      do i=1,n1",
        f"        bc{ident}(i,j) = r0{ident}(i,j) * t0{ident}(i,j)",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    )


def _double_region(e: _Emitter, ident: int, *, continuation: bool) -> None:
    # alternate the async queue so both queues the wait directives name
    # actually carry work (the lint's orphan-wait rule checks this)
    e.emit(f"!$acc parallel default(present) async({ident % 2 + 1})")
    if continuation:
        e.emit(f"!$acc& present(a{ident}, b{ident}, p{ident}, q{ident})")
    e.emit(
        "!$acc loop collapse(3)",
        "      do k=1,n3",
        "      do j=1,n2",
        "      do i=1,n1",
        f"        p{ident}(i,j,k) = a{ident}(i,j,k) * w1",
        "      enddo",
        "      enddo",
        "      enddo",
        "!$acc loop collapse(3)",
        "      do k=1,n3",
        "      do j=1,n2",
        "      do i=1,n1",
        f"        q{ident}(i,j,k) = b{ident}(i,j,k) * w2",
        "      enddo",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    )


def _scalar_reduction(e: _Emitter, ident: int, *, with_seq: bool = False) -> None:
    e.emit(
        "!$acc parallel default(present)",
        f"!$acc loop collapse(3) reduction(+:sum{ident})",
        "      do k=1,n3",
        "      do j=1,n2",
        "      do i=1,n1",
    )
    if with_seq:
        e.emit(
            "!$acc loop seq",
            "      do m=1,nm",
            f"        sum{ident} = sum{ident} + e{ident}(i,j,k) * wgt(m)",
            "      enddo",
        )
    else:
        e.emit(f"        sum{ident} = sum{ident} + e{ident}(i,j,k)**2")
    e.emit(
        "      enddo",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    )


def _array_reduction(e: _Emitter, ident: int) -> None:
    e.emit(
        "!$acc parallel default(present)",
        "!$acc loop collapse(2)",
        "      do j=1,n2",
        "      do i=1,n1",
        "!$acc atomic update",
        f"        sum0(i) = sum0(i) + f{ident}(i,j) * avec0(j)",
        "!$acc atomic update",
        f"        sum1(i) = sum1(i) + g{ident}(i,j) * avec1(j)",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    )


def _atomic_other(e: _Emitter, ident: int) -> None:
    e.emit(
        "!$acc parallel default(present)",
        "!$acc loop collapse(2)",
        "      do j=1,n2",
        "      do i=1,n1",
        "!$acc atomic write",
        f"        flag(map{ident}(i,j)) = 1",
        "!$acc atomic update",
        f"        hist(bin{ident}(i,j)) = hist(bin{ident}(i,j)) + 1",
        "!$acc atomic write",
        f"        mark(map{ident}(i,j)) = istep",
        "!$acc atomic update",
        f"        tally(bin{ident}(i,j)) = tally(bin{ident}(i,j)) + 1",
        "      enddo",
        "      enddo",
        "!$acc end parallel",
    )


def _kernels_region(e: _Emitter, ident: int) -> None:
    e.emit(
        "!$acc kernels",
        f"      dtmax{ident} = minval(dt_arr{ident})",
        "!$acc end kernels",
    )


def _routine_def(e: _Emitter, ident: int, *, manual_inline: bool = False,
                 body_stmts: int = 6) -> None:
    name = "interp1" if manual_inline else f"pure_fun{ident}"
    e.emit(
        f"  pure subroutine {name}(x, y, z, i, j, k)",
        "!$acc routine seq",
        "    real, intent(in)  :: x(:,:,:), y(:,:,:)",
        "    real, intent(out) :: z(:,:,:)",
        "    integer, intent(in) :: i, j, k",
    )
    for s in range(body_stmts):
        e.emit(f"    z(i,j,k) = x(i,j,k) * wq{s} + y(i,j,k) * wr{s}")
    e.emit(f"  end subroutine {name}")


def generate_mas_codebase(budget: GeneratorBudget = MAS_BUDGET) -> Codebase:
    """Emit the Code-1 (original OpenACC) synthetic MAS tree."""
    b = budget
    files: list[SourceFile] = []

    # ---- physics modules with the parallel regions --------------------------
    phys = _Emitter("mod_physics.f90")
    phys.module("mod_physics")
    ident = 0
    phys.emit("  subroutine advance_fields(istep)")
    for _ in range(b.plain3):
        _plain3(phys, ident)
        ident += 1
    for _ in range(b.caller3):
        _plain3(phys, ident, call=True)
        ident += 1
    for _ in range(b.plain2):
        _plain2(phys, ident)
        ident += 1
    for n in range(b.double_regions):
        _double_region(phys, ident, continuation=(n < b.double_with_cont))
        ident += 1
    for i in range(b.wait_lines):
        phys.emit(f"!$acc wait({i % 2 + 1})")
    phys.emit("  end subroutine advance_fields")

    phys.emit("  subroutine diagnostics(istep)")
    for n in range(b.scalar_reductions):
        _scalar_reduction(phys, ident, with_seq=(n == 0))
        ident += 1
    for _ in range(b.array_reductions):
        _array_reduction(phys, ident)
        ident += 1
    for _ in range(b.atomic_other):
        _atomic_other(phys, ident)
        ident += 1
    for n in range(b.kernels_regions):
        _kernels_region(phys, n)
    phys.emit("  end subroutine diagnostics")
    phys.end_module("mod_physics")
    files.append(phys.file)

    # ---- pure routines (OpenACC routine directives) ---------------------------
    rout = _Emitter("mod_routines.f90")
    rout.module("mod_routines")
    rout.emit("!$acc declare create(coef_tab)")
    rout.emit("  real :: coef_tab(ncoef)")
    for n in range(b.routine_defs):
        _routine_def(
            rout,
            n,
            manual_inline=(n == 0),
            body_stmts=(b.manual_inline_body if n == 0 else 6),
        )
    # the single call site of the routine nvfortran refuses to inline
    rout.emit(
        "  subroutine boundary_interp(x, y, z)",
        "    real, intent(inout) :: x(:,:,:), y(:,:,:), z(:,:,:)",
        "      call interp1(x, y, z, i1, j1, k1)",
        "  end subroutine boundary_interp",
    )
    rout.end_module("mod_routines")
    files.append(rout.file)

    # ---- setup / data management ------------------------------------------------
    setup = _Emitter("mod_setup.f90")
    setup.module("mod_setup")
    setup.emit("  subroutine init_gpu_data()")
    setup.emit("!$acc set device_num(idev)")
    setup.emit("!$acc update device(coef_tab)")
    cont_left = b.enter_data_cont
    for n in range(b.enter_data):
        setup.emit(f"!$acc enter data copyin(arr{n:04d})")
        if cont_left > 0:
            setup.emit(f"!$acc& copyin(aux{n:04d})")
            cont_left -= 1
    for n in range(b.dtype_enter_exit // 2):
        setup.emit(f"!$acc enter data copyin(dtyp{n}%arr)")
        if n < b.dtype_cont - 2:
            setup.emit(f"!$acc& copyin(dtyp{n}%aux)")
    setup.emit("  end subroutine init_gpu_data")
    setup.emit("  subroutine finalize_gpu_data()")
    for n in range(b.exit_data):
        setup.emit(f"!$acc exit data delete(arr{n:04d})")
    for n in range(b.dtype_enter_exit - b.dtype_enter_exit // 2):
        setup.emit(f"!$acc exit data delete(dtyp{n}%arr)")
        if n < b.dtype_cont - (b.dtype_cont - 2):
            setup.emit(f"!$acc& delete(dtyp{n}%aux)")
    setup.emit("  end subroutine finalize_gpu_data")
    setup.end_module("mod_setup")
    files.append(setup.file)

    # ---- I/O updates ---------------------------------------------------------------
    io = _Emitter("mod_io.f90")
    io.module("mod_io")
    io.emit("  subroutine write_restart(istep)")
    for n in range(b.update_data // 2):
        io.emit(f"!$acc update host(arr{n:04d})")
        io.emit(f"      call hdf5_write(arr{n:04d}, istep)")
    io.emit("  end subroutine write_restart")
    io.emit("  subroutine read_restart(istep)")
    for n in range(b.update_data - b.update_data // 2):
        io.emit(f"      call hdf5_read(arr{n:04d}, istep)")
        io.emit(f"!$acc update device(arr{n:04d})")
    io.emit("  end subroutine read_restart")
    io.end_module("mod_io")
    files.append(io.file)

    # ---- MPI seams: host_data + buffer glue -------------------------------------------
    mpi = _Emitter("mod_seam.f90")
    mpi.module("mod_seam")
    mpi.emit("  subroutine exchange_halos()")
    for n in range(b.host_data_pairs):
        glue = n < b.host_data_glue_pairs
        if glue:
            mpi.emit(f"      call load_gpu_buffer(sbuf{n}, arr{n:04d})")
        mpi.emit(
            f"!$acc host_data use_device(sbuf{n}, rbuf{n})",
            f"      call mpi_sendrecv_seam(sbuf{n}, rbuf{n}, n{n})",
            "!$acc end host_data",
        )
        if glue:
            mpi.emit(f"      call unload_gpu_buffer(rbuf{n}, arr{n:04d})")
    mpi.emit("  end subroutine exchange_halos")

    # legacy non-managed transfer paths, dead once everything is UM+DC
    per_block = b.legacy_lines_total // b.legacy_blocks
    extra = b.legacy_lines_total - per_block * b.legacy_blocks
    for n in range(b.legacy_blocks):
        lines = per_block + (extra if n == 0 else 0)
        mpi.emit("      if (.not. gpu_managed) then")
        for m in range(lines - 2):
            mpi.emit(f"        tbuf({m + 1}) = stage_area{n}({m + 1})")
        mpi.emit("      endif")
    mpi.end_module("mod_seam")
    files.append(mpi.file)

    # ---- duplicate CPU-only twins of ported routines -----------------------------------
    dup = _Emitter("mod_setup_cpu.f90")
    dup.module("mod_setup_cpu")
    for n in range(b.dup_cpu_routines):
        dup.emit(f"  subroutine smooth_field{n}_cpu(x, y)")
        dup.emit("    real, intent(inout) :: x(:,:,:), y(:,:,:)")
        for m in range(b.dup_cpu_lines_each - 3):
            dup.emit(f"      x(:, :, {m + 1}) = 0.5 * (x(:, :, {m + 1}) + y(:, :, {m + 1}))")
        dup.emit(f"  end subroutine smooth_field{n}_cpu")
    dup.end_module("mod_setup_cpu")
    files.append(dup.file)

    # ---- GPU support module (absent from the CPU-only original) -------------------------
    sup = _Emitter("mod_gpu_support.f90")
    sup.module("mod_gpu_support")
    sup.emit("  subroutine query_devices(ndev)")
    for m in range(b.gpu_support_lines - 7):
        sup.emit(f"      devtab({m + 1}) = probe_device_attr({m + 1})")
    sup.emit("  end subroutine query_devices")
    sup.end_module("mod_gpu_support")
    files.append(sup.file)

    cb = Codebase("code1_A", files)

    # ---- plain-physics base code up to the Table I total -------------------------------
    # MAS's bulk is setup, I/O, and serial physics the GPU port never
    # touched; emit it as a spread of plausible modules (equation setup,
    # boundary data, grid generation, ...) so the tree looks like a real
    # production code rather than one giant file.
    deficit = budget.total_lines_code1 - cb.total_lines
    module_names = [
        "mod_eqn_setup", "mod_grid_gen", "mod_bc_tables", "mod_init_fields",
        "mod_io_hdf5", "mod_diag_output", "mod_time_control", "mod_sts_coefs",
        "mod_seam_maps", "mod_heating_tables", "mod_rad_tables", "mod_units",
        "mod_probe_output", "mod_history", "mod_solver_setup", "mod_base_physics",
    ]
    overhead = 5 * len(module_names)  # module scaffolding lines
    if deficit < overhead + len(module_names):
        raise ValueError(
            f"construct budget already exceeds Table I total ({cb.total_lines})"
        )
    body_total = deficit - overhead
    per, extra = divmod(body_total, len(module_names))
    for idx, name in enumerate(module_names):
        filler = _Emitter(f"{name}.f90")
        filler.module(name)
        for m in range(per + (1 if idx < extra else 0)):
            filler.emit(f"      eqcoef{idx}({m + 1}) = table_lookup{idx}({m + 1}) * norm0")
        filler.end_module(name)
        cb.files.append(filler.file)
    assert cb.total_lines == budget.total_lines_code1
    return cb


def strip_to_cpu(cb: Codebase, budget: GeneratorBudget = MAS_BUDGET) -> Codebase:
    """Derive the original CPU-only code (Code 0, Table I row 0).

    Removes every directive line, the duplicate ``*_cpu`` twins the GPU
    port introduced, the GPU buffer glue / legacy transfer paths, and the
    GPU support module.
    """
    out = cb.copy("code0_CPU")
    # whole GPU-support module goes away
    out.files = [f for f in out.files if f.name != "mod_gpu_support.f90"]
    for f in out.files:
        # _cpu twins
        blocks = find_subroutines(f, r"_cpu$")
        for blk in sorted(blocks, key=lambda b_: b_.start, reverse=True):
            del f.lines[blk.start : blk.end + 1]
        # glue + legacy paths + directives
        new_lines: list[str] = []
        i = 0
        while i < len(f.lines):
            ln = f.lines[i]
            if is_directive_line(ln):
                i += 1
                continue
            if "load_gpu_buffer" in ln or "unload_gpu_buffer" in ln:
                i += 1
                continue
            if ln.strip() == "if (.not. gpu_managed) then":
                while f.lines[i].strip() != "endif":
                    i += 1
                i += 1
                continue
            new_lines.append(ln)
            i += 1
        f.lines = new_lines
    return out
