"""Transform-pass protocol and shared rewriting helpers."""

from __future__ import annotations

import re
from abc import ABC, abstractmethod

from repro.fortran.parser import LoopNest, ParallelRegion
from repro.fortran.source import Codebase


class TransformPass(ABC):
    """One source-to-source porting pass.

    Passes mutate a :class:`Codebase` copy in place; pipelines chain them.
    """

    @abstractmethod
    def apply(self, cb: Codebase) -> None:
        """Rewrite the codebase in place."""


_BOUND_RE = re.compile(r"^\s*(\S+)\s*,\s*(\S+)\s*$")


def dc_header(nest: LoopNest, *, indent: str = "      ", clause: str = "") -> str:
    """Render a ``do concurrent`` header covering a whole nest.

    Loop order follows MAS's Listing 2: outermost index first.
    """
    parts = []
    for var, bounds in zip(nest.index_vars, nest.bounds):
        m = _BOUND_RE.match(bounds)
        if m:
            lo, hi = m.group(1), m.group(2)
        else:
            lo, hi = "1", bounds.strip()
        parts.append(f"{var}={lo}:{hi}")
    head = f"{indent}do concurrent ({','.join(parts)})"
    if clause:
        head += f" {clause}"
    return head


def nest_body_lines(region: ParallelRegion, nest: LoopNest) -> list[str]:
    """The statements between a nest's ``do`` and ``enddo`` lines."""
    lines = region.file.lines
    first, last = nest.body_range
    return lines[first : last + 1]


def convert_nest_to_dc(region: ParallelRegion, nest: LoopNest) -> list[str]:
    """Replacement text: one DC loop covering the nest (Listing 1 -> 2)."""
    return [dc_header(nest), *nest_body_lines(region, nest), "      enddo"]
