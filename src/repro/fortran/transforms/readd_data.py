"""Code 6 (D2XAd): re-add manual data management via wrapper routines.

Starting from Code 5 (with the duplicate CPU routines kept, since this
build runs without UM), a wrapper module is generated that creates and
initializes every device array through create/init wrapper routines --
reducing the number of data directives needed versus Code 1's scattered
enter/exit/update lines (SIV-F: 277 directives, >5x fewer than Code 1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms.base import TransformPass


@dataclass(frozen=True, slots=True)
class WrapperBudget:
    """Directive/source sizing of the generated wrapper module (Table I)."""

    arrays: int = 120
    updates: int = 37
    acc_lines: int = 277
    src_lines: int = 462

    def __post_init__(self) -> None:
        if self.acc_lines != 2 * self.arrays + self.updates:
            raise ValueError(
                "wrapper acc budget must equal enter+exit per array plus updates"
            )


class ReaddDataPass(TransformPass):
    """Append the wrapper data-management module."""

    def __init__(self, budget: WrapperBudget = WrapperBudget()) -> None:
        self.budget = budget

    def build_wrapper_module(self) -> SourceFile:
        """Generate mod_gpu_wrappers.f90 to the budgeted size."""
        b = self.budget
        lines: list[str] = [
            "module mod_gpu_wrappers",
            "  use mod_types",
            "  implicit none",
            "contains",
        ]
        for n in range(b.arrays):
            lines += [
                f"  subroutine wrap_create_arr{n:04d}()",
                f"!$acc enter data create(arr{n:04d})",
                f"    call init_on_device(arr{n:04d})",
                f"  end subroutine wrap_create_arr{n:04d}",
            ]
        lines.append("  subroutine wrap_destroy_all()")
        for n in range(b.arrays):
            lines.append(f"!$acc exit data delete(arr{n:04d})")
        lines.append("  end subroutine wrap_destroy_all")
        lines.append("  subroutine wrap_sync_tables()")
        for n in range(b.updates):
            lines.append(f"!$acc update device(tab{n:03d})")
        lines.append("  end subroutine wrap_sync_tables")
        lines.append("end module mod_gpu_wrappers")

        src_so_far = sum(1 for ln in lines if not ln.lstrip().startswith("!$acc"))
        pad = b.src_lines - src_so_far
        if pad < 3:
            raise ValueError(
                f"wrapper source budget {b.src_lines} too small (need >= {src_so_far + 3})"
            )
        util = ["  subroutine init_on_device(x)"]
        util += [f"    x(:, :, {m + 1}) = 0." for m in range(pad - 2)]
        util += ["  end subroutine init_on_device"]
        # splice utilities before the end of the module
        lines[-1:-1] = util
        return SourceFile("mod_gpu_wrappers.f90", lines)

    def apply(self, cb: Codebase) -> None:
        if any(f.name == "mod_gpu_wrappers.f90" for f in cb.files):
            raise ValueError("wrapper module already present")
        cb.files.append(self.build_wrapper_module())
