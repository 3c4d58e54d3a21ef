"""Version pipelines: Code 1 -> Codes 0, 2-6 (Table I's rows)."""

from __future__ import annotations

from collections.abc import Callable

from repro.codes import CodeVersion
from repro.fortran.codebase import GeneratorBudget, MAS_BUDGET, generate_mas_codebase, strip_to_cpu
from repro.fortran.parser import EXPECTED_SAFETY, ParallelRegion, PortSafety
from repro.fortran.source import Codebase, SourceFile
from repro.fortran.transforms import (
    ConvertRegionsPass,
    PureDcPass,
    ReaddDataPass,
    TransformPass,
    UnifiedMemPass,
)
from repro.fortran.transforms.convert import F2018, F202X, Verdict

#: The paper's source transformations (SIV), in the order they are applied,
#: under the names the porter reports. Each entry builds its pass for a
#: version and for whoever decides what a region needs.
STAGES: tuple[tuple[str, Callable[[CodeVersion, Verdict], TransformPass]], ...] = (
    ("dc-f2018", lambda version, verdict: ConvertRegionsPass(F2018, verdict)),
    ("unified-mem", lambda version, verdict: UnifiedMemPass()),
    ("dc-202x", lambda version, verdict: ConvertRegionsPass(F202X, verdict)),
    # Code 6 runs without UM, so it keeps the duplicate CPU routines
    ("pure-dc", lambda version, verdict: PureDcPass(
        keep_cpu_duplicates=version is CodeVersion.D2XAD)),
    ("readd-data", lambda version, verdict: ReaddDataPass()),
)

#: Table I's rows are cumulative: each version applies a prefix of STAGES
#: to the Code 1 artifact.
VERSION_STAGES = {
    CodeVersion.A: STAGES[:0],
    CodeVersion.AD: STAGES[:1],
    CodeVersion.ADU: STAGES[:2],
    CodeVersion.AD2XU: STAGES[:3],
    CodeVersion.D2XU: STAGES[:4],
    CodeVersion.D2XAD: STAGES[:5],
}

_VERSION_NAMES = {
    CodeVersion.CPU: "code0_CPU",
    CodeVersion.A: "code1_A",
    CodeVersion.AD: "code2_AD",
    CodeVersion.ADU: "code3_ADU",
    CodeVersion.AD2XU: "code4_AD2XU",
    CodeVersion.D2XU: "code5_D2XU",
    CodeVersion.D2XAD: "code6_D2XAd",
}


def version_passes(version: CodeVersion, verdict: Verdict) -> list[tuple[str, TransformPass]]:
    """A version's ``(stage name, pass)`` pairs, built and not yet applied,
    so a caller can look at the tree between any two stages."""
    return [(name, make(version, verdict)) for name, make in VERSION_STAGES[version]]


def _taxonomy_verdict(f: SourceFile, region: ParallelRegion) -> PortSafety:
    """What a region needs, read off what its directives say it is."""
    return EXPECTED_SAFETY[region.kind]


def build_version(
    version: CodeVersion,
    *,
    code1: Codebase | None = None,
    budget: GeneratorBudget = MAS_BUDGET,
) -> Codebase:
    """Produce one code version's source tree.

    ``code1`` may be passed to avoid regenerating the base artifact when
    building several versions.
    """
    base = code1 or generate_mas_codebase(budget)
    if version is CodeVersion.CPU:
        return strip_to_cpu(base, budget)
    cb = base.copy(_VERSION_NAMES[version])
    for _name, p in version_passes(version, _taxonomy_verdict):
        p.apply(cb)
        if isinstance(p, ConvertRegionsPass) and p.refused:
            raise ValueError(f"cannot build {_VERSION_NAMES[version]}: {p.refused[0].render()}")
    return cb
