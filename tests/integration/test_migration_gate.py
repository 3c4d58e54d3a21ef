"""Migration gate: the simulated clock, launch counts and UM traffic of
every code version, recorded from the commit before launch pricing was
memoised (``tests/fixtures/pricing_golden.json``) and required to stay
equal to the last bit.  The ``-r2-`` cases were added, and the file
re-recorded with the older entries coming out unchanged, from the commit
before the implicit solve became :mod:`repro.mas.implicit_solve`: they
walk the solve's other axes (PCG recurrence, blocking or non-blocking
fused reduction, preconditioner, member axis). The ``A-r2``,
``A-r2-b3-pipelined-cheby``, ``D2XU-r2-classic-cheby`` and
``CPU-r2-pipelined`` cases took the place of four that also ran a
semi-implicit wave operator when that operator was deleted; they were
recorded from the commit before the deletion.
The ``A-r3`` case, whose ranks have two ghosted shapes, was added the same
way from the commit before the implicit solves ran one numpy pass per
group of equal-shape ranks (:mod:`repro.mas.groups`). The
``A-r2-b2-resistivity`` case, whose one group has as many ranks as
members, was added the same way from the commit before the explicit step
ran one numpy pass per group.

Re-record (only from a commit whose pricing is the reference) with::

    PYTHONPATH=src python tests/integration/test_migration_gate.py [CASE ...]

Named cases are recorded and every other entry is copied byte for byte
(an entry whose case is gone is dropped); with no case, all are recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys
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

#: case id -> (code version, ranks, cross_region_fusion, halo_overlap,
#: ModelConfig fields set differently from MODEL_SETTINGS)
CASES: dict[str, tuple[str, int, bool, bool, dict]] = {
    f"{version}-r{ranks}": (version, ranks, False, False, {})
    for version in ("CPU", "A", "AD", "ADU", "AD2XU", "D2XU", "D2XAD")
    for ranks in (1, 8)
}
CASES["A-r8-fused"] = ("A", 8, True, False, {})       # region + window plans
CASES["A-r8-overlap"] = ("A", 8, False, True, {})     # detached communication clock
CASES["A-r8-overlap-fused"] = ("A", 8, True, True, {})
# 16 phi cells on 3 ranks split 5/5/6: local shapes 12x10x7 and 12x10x8,
# so the ranks fall into two groups of equal ghosted shape.
CASES["A-r3"] = ("A", 3, False, False, {})


def _solve_case(version: str, *, fuse: bool = False, overlap: bool = False, **fields):
    return (version, 2, fuse, overlap, fields)


# Three members of the paper grid overflow one simulated device: shrink
# the nominal phi extent by B, as ``repro sweep`` does.
_B3 = dict(ensemble_size=3, nominal_shape=(150, 300, 800 // 3))
_B3_VISCOSITY = dict(_B3, ensemble_vary=(("viscosity", (1e-3, 3e-3, 1e-2)),))
_B3_RESISTIVITY = dict(_B3, ensemble_vary=(("resistivity", (1e-4, 1e-3, 5e-3)),))
# Two members on two ranks of one group: a (G, ...) metric column missing
# its member axis broadcasts against B == G instead of raising.
_B2_RESISTIVITY = dict(
    ensemble_size=2, nominal_shape=(150, 300, 800 // 2),
    ensemble_vary=(("resistivity", (1e-4, 5e-3)),),
)
# Code 1 has async queues, so its pipelined reduction is non-blocking and
# its exchanges can overlap; Code 5 (D2XU) and the CPU run both blocking.
CASES.update({
    "A-r2-classic": _solve_case("A", pcg_variant="classic"),
    "A-r2-pipelined": _solve_case("A", pcg_variant="pipelined"),
    "A-r2-cheby": _solve_case("A", pcg_precond="cheby"),
    "A-r2": _solve_case("A"),
    "A-r2-overlap-fused-pipelined-cheby": _solve_case(
        "A", fuse=True, overlap=True, pcg_variant="pipelined", pcg_precond="cheby"
    ),
    "A-r2-b3": _solve_case("A", **_B3_VISCOSITY),
    "A-r2-b2-resistivity": _solve_case("A", **_B2_RESISTIVITY),
    "A-r2-b3-pipelined-cheby": _solve_case(
        "A", pcg_variant="pipelined", pcg_precond="cheby", **_B3_VISCOSITY,
    ),
    "D2XU-r2-pipelined-cheby": _solve_case(
        "D2XU", pcg_variant="pipelined", pcg_precond="cheby"
    ),
    "D2XU-r2-classic-cheby": _solve_case(
        "D2XU", pcg_variant="classic", pcg_precond="cheby"
    ),
    "D2XU-r2-b3-classic": _solve_case(
        "D2XU", pcg_variant="classic", **_B3_RESISTIVITY
    ),
    "CPU-r2-pipelined": _solve_case("CPU", pcg_variant="pipelined"),
    "CPU-r2-b3-classic-cheby": _solve_case(
        "CPU", pcg_variant="classic", pcg_precond="cheby", **_B3_VISCOSITY
    ),
})


def configs(case: str) -> tuple:
    """``MasModel``'s two configurations for one case."""
    version, ranks, fuse, overlap, fields = CASES[case]
    rt_cfg = codes.runtime_config_for(codes.CodeVersion[version])
    if fuse:
        rt_cfg = replace(rt_cfg, cross_region_fusion=True)
    return mas.ModelConfig(
        shape=SHAPE, num_ranks=ranks, halo_overlap=overlap,
        **{**MODEL_SETTINGS, **fields},
    ), rt_cfg


def build(case: str) -> mas.MasModel:
    return mas.MasModel(*configs(case))


def record_runtime(run) -> dict:
    """The priced half of :func:`record`, off a model or off a bare
    :class:`~repro.mas.runtime_side.RuntimeSide` (a replayed plan)."""
    ranks = []
    for rt in run.ranks:
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
        "wall_time": run.wall_time().hex(),
        "halo_messages": run.halo.messages,
        "halo_bytes": run.halo.bytes_sent,
        "ranks": ranks,
    }


def record(model: mas.MasModel) -> dict:
    """Everything pricing may not move, floats as hex."""
    digest = hashlib.sha256()
    for state in model.states:
        for name in ALL_FIELDS:
            digest.update(np.ascontiguousarray(state.get(name)).tobytes())
    out = {"state_sha256": digest.hexdigest(), **record_runtime(model)}
    if model.config.ensemble_size > 1:  # per-member clocks and PCG ledger
        out["members"] = model.ensemble_report()
    return out


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


def test_rerecording_named_cases_copies_every_other_entry(tmp_path, monkeypatch):
    golden = tmp_path / "golden.json"
    stored = {"numpy": np.__version__, "cases": {
        "kept": {"wall_time": "0x1.8p+0", "ranks": [1.25, None]},
        "moved": {"wall_time": "old"}, "gone": {"wall_time": "x"},
    }}
    golden.write_text(json.dumps(stored, indent=1) + "\n")
    module = sys.modules[__name__]
    monkeypatch.setattr(module, "GOLDEN", golden)
    monkeypatch.setattr(module, "CASES", dict.fromkeys(["kept", "moved", "new"]))
    monkeypatch.setattr(module, "run_case", lambda case: {"wall_time": case})
    doc = rerecord(["moved", "new"])
    assert doc["cases"] == {
        "kept": stored["cases"]["kept"], "moved": {"wall_time": "moved"},
        "new": {"wall_time": "new"},
    }
    # the kept entry's text, two levels deep in both documents
    kept = '"kept": ' + json.dumps(stored["cases"]["kept"], indent=1).replace("\n", "\n  ")
    assert kept in golden.read_text() and kept in json.dumps(doc, indent=1)
    with pytest.raises(SystemExit, match="unknown case"):
        rerecord(["nope"])
    with pytest.raises(SystemExit, match="no recorded entry for new"):
        rerecord(["moved"])


def rerecord(named: list[str]) -> dict:
    """The golden document with the ``named`` cases recorded afresh (all
    of them when none is named) and every other case's entry as stored."""
    unknown = sorted(set(named) - set(CASES))
    if unknown:
        raise SystemExit(f"unknown case(s): {', '.join(unknown)}")
    old = json.loads(GOLDEN.read_text()) if named else {"cases": {}}
    if named and old["numpy"] != np.__version__:
        raise SystemExit(
            f"the golden was recorded under numpy {old['numpy']}, this is "
            f"{np.__version__}: re-record every case"
        )
    fresh = set(named or CASES)
    missing = sorted(set(CASES) - fresh - set(old["cases"]))
    if missing:
        raise SystemExit(f"no recorded entry for {', '.join(missing)}: name them too")
    return {
        "numpy": np.__version__,
        "cases": {
            case: run_case(case) if case in fresh else old["cases"][case]
            for case in sorted(CASES)
        },
    }


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(rerecord(sys.argv[1:]), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
