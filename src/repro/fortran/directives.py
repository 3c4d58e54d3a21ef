"""OpenACC directive parsing and classification.

Directive *kinds* follow Table II's census categories exactly, so the
census of a codebase can be asserted against the paper's numbers.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

#: Sentinel starting every OpenACC directive comment line.
ACC_SENTINEL = "!$acc"


class DirectiveKind(enum.Enum):
    """Directive categories, matching Table II's rows."""

    PARALLEL_LOOP = "parallel, loop"       # parallel / end parallel / loop
    DATA = "data management"               # enter, exit, update, host_data, declare
    ATOMIC = "atomic"
    ROUTINE = "routine"
    KERNELS = "kernels"                    # kernels / end kernels
    WAIT = "wait"
    SET_DEVICE = "set device_num"
    CONTINUATION = "continuation"          # !$acc& ...


#: First-token(s) -> kind mapping for non-continuation directives.
_KIND_BY_HEAD: list[tuple[re.Pattern, DirectiveKind]] = [
    (re.compile(r"^(end\s+)?parallel\b"), DirectiveKind.PARALLEL_LOOP),
    (re.compile(r"^loop\b"), DirectiveKind.PARALLEL_LOOP),
    (re.compile(r"^(enter|exit)\s+data\b"), DirectiveKind.DATA),
    (re.compile(r"^(end\s+)?data\b"), DirectiveKind.DATA),
    (re.compile(r"^update\b"), DirectiveKind.DATA),
    (re.compile(r"^(end\s+)?host_data\b"), DirectiveKind.DATA),
    (re.compile(r"^declare\b"), DirectiveKind.DATA),
    (re.compile(r"^atomic\b"), DirectiveKind.ATOMIC),
    (re.compile(r"^routine\b"), DirectiveKind.ROUTINE),
    (re.compile(r"^(end\s+)?kernels\b"), DirectiveKind.KERNELS),
    (re.compile(r"^wait\b"), DirectiveKind.WAIT),
    (re.compile(r"^set\s+device_num\b"), DirectiveKind.SET_DEVICE),
]
_REGION_START_RE = re.compile(r"^(parallel|kernels|data|host_data)\b", re.I)
_COMBINED_RE = re.compile(r"^(parallel|kernels)\s+loop\b", re.I)


@dataclass(frozen=True, slots=True)
class AccDirective:
    """One parsed ``!$acc`` line."""

    kind: DirectiveKind
    text: str        # the full source line, stripped
    payload: str     # text after the sentinel

    @property
    def is_region_start(self) -> bool:
        """Opens a parallel/kernels/data/host_data region."""
        return _REGION_START_RE.match(self.payload.lstrip()) is not None

    @property
    def is_region_end(self) -> bool:
        """Closes a region."""
        return self.payload.lstrip().lower().startswith("end ")

    @property
    def is_combined_construct(self) -> bool:
        """A combined ``parallel loop`` / ``kernels loop`` construct.

        Real OpenACC codes attach these directly to the following loop
        nest with no ``end`` directive; the canonical subset always uses
        the region form (``parallel`` + ``loop`` + ``end parallel``).
        """
        return _COMBINED_RE.match(self.payload.lstrip()) is not None

    def has_clause(self, name: str) -> bool:
        """True if the directive carries a clause (word match)."""
        return (
            name in self.payload
            and re.search(rf"\b{re.escape(name)}\b", self.payload) is not None
        )


def is_directive_line(line: str) -> bool:
    """True for any ``!$acc`` (or continuation ``!$acc&``) line."""
    # the sentinel's two non-letters, a C-level test that rejects most lines
    return "!$" in line and line.lstrip()[:5].lower() == ACC_SENTINEL


def parse_directive(line: str) -> AccDirective:
    """Parse one directive line; raises ValueError for non-directives."""
    stripped = line.strip()
    low = stripped.lower()
    if not low.startswith(ACC_SENTINEL):
        raise ValueError(f"not an OpenACC directive: {line!r}")
    rest = stripped[len(ACC_SENTINEL):]
    # free-form continuation: `!$acc& ...` canonically, but real sources
    # also write `!$acc & ...` with whitespace before the ampersand
    if rest.lstrip().startswith("&"):
        return AccDirective(
            DirectiveKind.CONTINUATION, stripped,
            rest.lstrip()[1:].strip(),
        )
    payload = rest.strip()
    payload_low = payload.lower()
    for pattern, kind in _KIND_BY_HEAD:
        if pattern.match(payload_low):
            return AccDirective(kind, stripped, payload)
    raise ValueError(f"unrecognized OpenACC directive: {line!r}")


def try_parse_directive(line: str) -> AccDirective | None:
    """Tolerant :func:`parse_directive`: None instead of ValueError.

    The real-Fortran front end uses this to decide whether a sentinel
    line is in the supported subset or must degrade to an opaque line.
    """
    try:
        return parse_directive(line)
    except ValueError:
        return None
