"""Portability analysis: which compilers can build each code version.

The paper's SIV/SVI portability discussion, made executable. Each code
version trades directives for language features, and each trade changes
which compilers can build it:

* OpenACC directives are comments -- any compiler *builds* the code, but
  GPU offload needs OpenACC support (nvfortran; partially gfortran/cray);
* Fortran-2018 ``do concurrent`` compiles everywhere, offloads on
  nvfortran and ifx;
* the 202X ``reduce`` clause breaks F2018 compilers "even on the CPU"
  (SIV-D) until the standard lands.

The analyzer scans actual source text for these constructs (it does not
trust the version label), so it doubles as a lint for hand-edited trees.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

from repro.codes import CodeVersion
from repro.fortran.codebase import generate_mas_codebase
from repro.fortran.directives import is_directive_line
from repro.fortran.pipeline import build_version
from repro.fortran.source import Codebase


class LanguageLevel(enum.Enum):
    """The strictest language feature a codebase uses."""

    F2008 = "Fortran 2008"
    F2018 = "Fortran 2018 (do concurrent)"
    F202X = "Fortran 202X preview (do concurrent reduce)"


@dataclass(frozen=True, slots=True)
class CompilerProfile:
    """What one compiler (version era of the paper) supports."""

    name: str
    compiles_f202x: bool
    openacc_offload: bool
    dc_offload: bool

    def can_compile(self, report: "PortabilityReport") -> bool:
        """Can this compiler build the code at all (CPU target)?"""
        if report.language_level is LanguageLevel.F202X:
            return self.compiles_f202x
        return True  # directives are comments; F2018 DC is standard

    def can_offload(self, report: "PortabilityReport") -> bool:
        """Can this compiler produce a working GPU build?"""
        if not self.can_compile(report):
            return False
        if report.uses_openacc and not self.openacc_offload:
            return False
        if report.uses_do_concurrent and not self.dc_offload:
            return False
        return True


#: Compiler landscape at the paper's writing (SII, SIV-D).
COMPILERS: tuple[CompilerProfile, ...] = (
    CompilerProfile("nvfortran 22.11", compiles_f202x=True, openacc_offload=True, dc_offload=True),
    CompilerProfile("gfortran 12", compiles_f202x=False, openacc_offload=True, dc_offload=False),
    CompilerProfile("ifx 2023", compiles_f202x=False, openacc_offload=False, dc_offload=True),
    CompilerProfile("ifort classic", compiles_f202x=False, openacc_offload=False, dc_offload=False),
    CompilerProfile("cray ftn", compiles_f202x=False, openacc_offload=True, dc_offload=False),
)

_DC_RE = re.compile(r"^\s*do\s+concurrent\b", re.I)
_REDUCE_RE = re.compile(r"\breduce\s*\(", re.I)


@dataclass(frozen=True)
class PortabilityReport:
    """Constructs found in a codebase and their portability consequences."""

    codebase_name: str
    uses_openacc: bool
    uses_do_concurrent: bool
    uses_dc_reduce: bool
    dc_loop_count: int
    acc_line_count: int

    @property
    def language_level(self) -> LanguageLevel:
        """Strictest standard level required."""
        if self.uses_dc_reduce:
            return LanguageLevel.F202X
        if self.uses_do_concurrent:
            return LanguageLevel.F2018
        return LanguageLevel.F2008

    def compilers_that_compile(self) -> list[str]:
        """Compilers that can build the code (CPU)."""
        return [c.name for c in COMPILERS if c.can_compile(self)]

    def compilers_that_offload(self) -> list[str]:
        """Compilers that can produce a working GPU build."""
        return [c.name for c in COMPILERS if c.can_offload(self)]


def analyze(cb: Codebase) -> PortabilityReport:
    """Scan a codebase for the portability-relevant constructs."""
    uses_acc = False
    acc_lines = 0
    dc_loops = 0
    uses_reduce = False
    for _f, _i, line in cb.iter_lines():
        if is_directive_line(line):
            uses_acc = True
            acc_lines += 1
        elif _DC_RE.match(line):
            dc_loops += 1
            if _REDUCE_RE.search(line):
                uses_reduce = True
    return PortabilityReport(
        codebase_name=cb.name,
        uses_openacc=uses_acc,
        uses_do_concurrent=dc_loops > 0,
        uses_dc_reduce=uses_reduce,
        dc_loop_count=dc_loops,
        acc_line_count=acc_lines,
    )


def render_report(report: PortabilityReport) -> str:
    """Human-readable portability summary for one version."""
    lines = [
        f"{report.codebase_name}:",
        f"  language level : {report.language_level.value}",
        f"  !$acc lines    : {report.acc_line_count}",
        f"  DC loops       : {report.dc_loop_count}"
        + (" (uses reduce)" if report.uses_dc_reduce else ""),
        f"  compiles (CPU) : {', '.join(report.compilers_that_compile())}",
        f"  GPU offload    : {', '.join(report.compilers_that_offload()) or 'none'}",
    ]
    return "\n".join(lines)


def run() -> list[PortabilityReport]:
    """Scan all seven built code versions."""
    code1 = generate_mas_codebase()
    return [analyze(build_version(v, code1=code1)) for v in CodeVersion]


def render(reports: list[PortabilityReport]) -> str:
    return "\n\n".join(render_report(r) for r in reports) + "\n"


def section(reports: list[PortabilityReport]) -> list[str]:
    return [
        "SIV / SVI made executable (`repro portability`): the constructs each"
        " built code version actually contains, and which compilers of the"
        " paper's era can build it for the CPU and offload it to a GPU.\n",
        "```\n" + render(reports) + "```",
        "\nThe 202X `reduce` clause is what costs portability: Codes 4-6"
        ' build with nvfortran alone, "even on the CPU" (SIV-D), until the'
        " standard lands in the other compilers.",
    ]
