"""Migration gate: the simulated clock, launch counts and UM traffic of
every code version, recorded from the commit before launch pricing was
memoised (``tests/fixtures/pricing_golden.json``) and required to stay
equal to the last bit.

Re-record (only from a commit whose pricing is the reference) with::

    PYTHONPATH=src python tests/integration/test_migration_gate.py
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from repro import codes, mas
from repro.mas.state import ALL_FIELDS

GOLDEN = Path(__file__).resolve().parent.parent / "fixtures" / "pricing_golden.json"

SHAPE = (10, 8, 16)
STEPS = 3
#: The benchmark's ``MODEL_SETTINGS`` (bench/workloads.py).
MODEL_SETTINGS = dict(
    pcg_variant="ca", pcg_precond="jacobi", pcg_iters=8, pcg_tol=0.0, sts_stages=4
)

#: case id -> (code version, ranks, cross_region_fusion, halo_overlap)
CASES: dict[str, tuple[str, int, bool, bool]] = {
    f"{version}-r{ranks}": (version, ranks, False, False)
    for version in ("CPU", "A", "AD", "ADU", "AD2XU", "D2XU", "D2XAD")
    for ranks in (1, 8)
}
CASES["A-r8-fused"] = ("A", 8, True, False)       # region + window plans
CASES["A-r8-overlap"] = ("A", 8, False, True)     # detached communication clock
CASES["A-r8-overlap-fused"] = ("A", 8, True, True)


def build(case: str) -> mas.MasModel:
    version, ranks, fuse, overlap = CASES[case]
    rt_cfg = codes.runtime_config_for(codes.CodeVersion[version])
    if fuse:
        rt_cfg = replace(rt_cfg, cross_region_fusion=True)
    return mas.MasModel(
        mas.ModelConfig(
            shape=SHAPE, num_ranks=ranks, halo_overlap=overlap, **MODEL_SETTINGS
        ),
        rt_cfg,
    )


def record(model: mas.MasModel) -> dict:
    """Everything pricing may not move, floats as hex."""
    digest = hashlib.sha256()
    for state in model.states:
        for name in ALL_FIELDS:
            digest.update(np.ascontiguousarray(state.get(name)).tobytes())
    ranks = []
    for rt in model.ranks:
        um = getattr(rt.env, "um", None)
        ranks.append({
            "by_category": {
                c.value: t.hex()
                for c, t in sorted(rt.clock.by_category.items(), key=lambda kv: kv[0].value)
            },
            "launch_stats": asdict(rt.stats),
            "um_stats": None if um is None else asdict(um.stats),
        })
    return {
        "state_sha256": digest.hexdigest(),
        "wall_time": model.wall_time().hex(),
        "halo_messages": model.halo.messages,
        "halo_bytes": model.halo.bytes_sent,
        "ranks": ranks,
    }


def run_case(case: str) -> dict:
    model = build(case)
    model.run(STEPS)
    return record(model)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_case(golden):
    assert sorted(golden["cases"]) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_priced_run_equals_recorded_parent(case, golden):
    got = run_case(case)
    want = golden["cases"][case]
    if golden["numpy"] != np.__version__:
        # The clock is plain float arithmetic and repeats everywhere; the
        # state goes through numpy reductions, which repeat per build.
        got.pop("state_sha256")
        want.pop("state_sha256")
    # compare piecewise so a failure names what moved
    assert got["wall_time"] == want["wall_time"]
    for r, (g, w) in enumerate(zip(got["ranks"], want["ranks"])):
        assert g == w, f"rank {r}"
    assert got == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(
        {"numpy": np.__version__,
         "cases": {case: run_case(case) for case in sorted(CASES)}},
        indent=1,
    ) + "\n")
    print(f"wrote {GOLDEN}")
