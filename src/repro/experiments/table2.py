"""Table II: OpenACC directive census of the original GPU branch (Code 1)."""

from __future__ import annotations

from repro.fortran.codebase import GeneratorBudget, MAS_BUDGET, generate_mas_codebase
from repro.fortran.directives import DirectiveKind
from repro.fortran.metrics import directive_census
from repro.util.tables import Table

#: The paper's census (Table II).
PAPER_CENSUS: dict[DirectiveKind, int] = {
    DirectiveKind.PARALLEL_LOOP: 997,
    DirectiveKind.DATA: 320,
    DirectiveKind.ATOMIC: 34,
    DirectiveKind.ROUTINE: 12,
    DirectiveKind.KERNELS: 6,
    DirectiveKind.WAIT: 6,
    DirectiveKind.SET_DEVICE: 1,
    DirectiveKind.CONTINUATION: 82,
}

PAPER_TOTAL = 1458


def run_table2(budget: GeneratorBudget = MAS_BUDGET) -> dict[DirectiveKind, int]:
    """Census of the generated Code 1 codebase."""
    return directive_census(generate_mas_codebase(budget))


def render_table2(census: dict[DirectiveKind, int]) -> str:
    """Paper-style rendering with paper-vs-measured columns."""
    t = Table(
        ["OpenACC directive type", "# of lines", "(paper)"],
        title="Table II -- OpenACC directives in the original GPU branch (Code 1)",
    )
    for kind in DirectiveKind:
        t.add_row([kind.value, census.get(kind, 0), PAPER_CENSUS[kind]])
    t.add_row(["Total", sum(census.values()), PAPER_TOTAL])
    return t.render()


run = run_table2
render = render_table2


def csv(census: dict[DirectiveKind, int]) -> tuple[list[str], list[list]]:
    return (
        ["directive_type", "measured", "paper"],
        [[k.value, v, PAPER_CENSUS[k]] for k, v in census.items()],
    )


def ok(census: dict[DirectiveKind, int]) -> bool:
    """The generated census equals the paper's."""
    return census == PAPER_CENSUS


def section(census: dict[DirectiveKind, int]) -> list[str]:
    out = ["| directive type | paper | measured |", "|---|---|---|"]
    for kind in DirectiveKind:
        out.append(f"| {kind.value} | {PAPER_CENSUS[kind]} | {census[kind]} |")
    out.append(f"| **total** | **1458** | **{sum(census.values())}** |")
    return out
