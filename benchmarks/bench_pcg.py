"""PCG solver-family bench: communication avoidance and preconditioning.

Runs the same small multi-rank model under every PCG variant (classic,
Chronopoulos-Gear ``ca``, pipelined) and compares the fused-reduction
payoff: allreduce calls per solve, simulated MPI seconds, and the
solution deviation from the classic reference.  A dense-operator solve
also measures how many iterations the Chebyshev polynomial
preconditioner saves over plain Jacobi at a fixed tolerance.  Results
land in ``BENCH_pcg.json`` at the repo root so PRs can track the
communication model like the other BENCH artifacts.

Run with ``pytest benchmarks/bench_pcg.py -s``.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from conftest import print_block

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig
from repro.mas.pcg import (
    PCG_VARIANTS,
    chebyshev_preconditioner,
    jacobi_preconditioner,
    numpy_combine,
    numpy_dot,
    pcg_solve,
)
from repro.obs.telemetry import session
from repro.util.tables import Table

REPO_ROOT = Path(__file__).resolve().parents[1]
ARTIFACT = REPO_ROOT / "BENCH_pcg.json"

STEPS = 2
SHAPE = (8, 6, 12)
RANKS = 2
PCG_ITERS = 4


def _run_variant(variant: str, out_dir: Path) -> dict:
    with session(out_dir) as tel:
        model = MasModel(
            ModelConfig(shape=SHAPE, num_ranks=RANKS, pcg_iters=PCG_ITERS,
                        pcg_variant=variant, sts_stages=3),
            runtime_config_for(CodeVersion.A),
        )
        model.run(STEPS)
        metrics = json.loads(tel.metrics.to_json_text())
    calls = sum(
        s["value"]
        for s in metrics["pcg_allreduce_calls_total"]["samples"]
        if "value" in s
    )
    solves = sum(
        s["value"]
        for s in metrics["pcg_solves_total"]["samples"]
        if "value" in s
    )
    return {
        "allreduce_calls": int(calls),
        "solves": int(solves),
        "calls_per_solve": calls / solves,
        "sim_mpi_seconds": max(rt.clock.mpi_time for rt in model.ranks),
        "sim_wall_seconds": max(rt.clock.now for rt in model.ranks),
        "states": [
            {f: s.get(f).copy() for f in ("vr", "vt", "vp")}
            for s in model.states
        ],
    }


def _max_rel_dev(ref: dict, got: dict) -> float:
    dev = 0.0
    for s_ref, s_got in zip(ref["states"], got["states"]):
        for f, a in s_ref.items():
            b = s_got[f]
            scale = max(float(np.max(np.abs(a))), 1e-30)
            dev = max(dev, float(np.max(np.abs(a - b))) / scale)
    return dev


def _dense_precond_iterations() -> dict:
    """Iterations to 1e-10 on a dense SPD operator, jacobi vs cheby."""
    rng = np.random.default_rng(7)
    n = 48
    m = rng.standard_normal((n, n))
    a_mat = m @ m.T + n * np.eye(n)
    b = rng.standard_normal(n)
    diag = np.diag(a_mat).copy()
    ev = np.linalg.eigvalsh(np.diag(1.0 / np.sqrt(diag)) @ a_mat
                            @ np.diag(1.0 / np.sqrt(diag)))

    def apply_a(v):
        return [a_mat @ v[0]]

    counts = {}
    for name, precond in (
        ("jacobi", jacobi_preconditioner([diag])),
        ("cheby", chebyshev_preconditioner(
            apply_a, [1.0 / diag], degree=4,
            lam_min=float(ev.min()), lam_max=float(ev.max()),
        )),
    ):
        res = pcg_solve(apply_a, [b.copy()], [np.zeros(n)], dot=numpy_dot,
                        precondition=precond, combine=numpy_combine,
                        iterations=200, tol=1e-10)
        assert res.converged, name
        counts[name] = int(res.iterations[0])
    return counts


def test_pcg_variants(tmp_path, benchmark):
    runs = benchmark.pedantic(
        lambda: {v: _run_variant(v, tmp_path / v) for v in PCG_VARIANTS},
        rounds=1, iterations=1,
    )
    precond_iters = _dense_precond_iterations()

    classic = runs["classic"]
    result = {
        "schema": "repro-bench-pcg/1",
        "config": {"steps": STEPS, "shape": list(SHAPE), "ranks": RANKS,
                   "pcg_iters": PCG_ITERS, "version": "A"},
        "variants": {},
        "precond_iterations_to_1e-10": precond_iters,
        "cheby_iteration_savings": 1.0 - (
            precond_iters["cheby"] / precond_iters["jacobi"]
        ),
    }
    for v in PCG_VARIANTS:
        r = runs[v]
        result["variants"][v] = {
            "allreduce_calls": r["allreduce_calls"],
            "calls_per_solve": round(r["calls_per_solve"], 3),
            "sim_mpi_seconds": r["sim_mpi_seconds"],
            "sim_wall_seconds": r["sim_wall_seconds"],
            "allreduce_reduction_vs_classic": round(
                classic["allreduce_calls"] / r["allreduce_calls"], 3
            ),
            "max_rel_deviation_vs_classic": _max_rel_dev(classic, r),
        }
    ARTIFACT.write_text(json.dumps(result, indent=2) + "\n")

    t = Table(
        ["variant", "allreduce calls", "calls/solve", "sim mpi (ms)",
         "max rel dev vs classic"],
        title=f"PCG variants, {STEPS} steps of {SHAPE} on {RANKS} ranks",
    )
    for v in PCG_VARIANTS:
        s = result["variants"][v]
        t.add_row([v, s["allreduce_calls"], s["calls_per_solve"],
                   s["sim_mpi_seconds"] * 1e3,
                   s["max_rel_deviation_vs_classic"]])
    print_block(
        "PCG SOLVER FAMILY -- communication avoidance",
        t.render() + "\n"
        + f"cheby vs jacobi to 1e-10: {precond_iters['cheby']} vs "
        f"{precond_iters['jacobi']} iterations "
        f"({result['cheby_iteration_savings'] * 100:.0f}% saved)\n"
        f"wrote {ARTIFACT}",
    )

    # the communication-avoiding variants must at least halve the
    # allreduce count and reproduce the classic solution
    for v in ("ca", "pipelined"):
        s = result["variants"][v]
        assert s["allreduce_reduction_vs_classic"] >= 2.0, v
        assert s["max_rel_deviation_vs_classic"] < 1e-10, v
        assert s["sim_mpi_seconds"] < classic["sim_mpi_seconds"], v
    assert precond_iters["cheby"] < precond_iters["jacobi"]
