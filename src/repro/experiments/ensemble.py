"""Ensemble sweep ablation: what batching B members into one model buys.

Beyond the paper. Counts, not clocks: kernel launches and halo messages
of one batched run per ensemble size, at a configuration small enough to
run in the report (3 steps of (8, 6, 12) on 2 ranks).
"""

from __future__ import annotations

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.model import MasModel, ModelConfig

MEMBERS = (1, 2, 4, 8)


def run() -> dict[int, tuple[int, int]]:
    """(launches, halo messages), both summed over ranks, per ensemble size."""
    counts = {}
    for members in MEMBERS:
        model = MasModel(
            ModelConfig(shape=(8, 6, 12), nominal_shape=(150, 300, 96), num_ranks=2,
                        pcg_iters=4, sts_stages=3, ensemble_size=members),
            runtime_config_for(CodeVersion.A),
        )
        model.run(3)
        counts[members] = (
            sum(rt.stats.launches for rt in model.ranks), model.halo.messages
        )
    return counts


def section(counts: dict[int, tuple[int, int]]) -> list[str]:
    out = [
        "A parameter sweep (`repro sweep`, docs/OBSERVABILITY.md) advances B"
        " ensemble members in ONE batched model: every state and work array"
        " carries a leading member axis, so each kernel launch, fused"
        " reduction, and halo message moves all B members at once. The member"
        " axis is a pure layout transform -- a batched run reproduces its B"
        " serial runs bitwise (`tests/mas/test_ensemble.py`) -- so the whole"
        " gain is amortization. Code 1, 3 steps of (8, 6, 12) on 2 ranks,"
        " per-member nominal grid (150, 300, 96), 4 PCG iterations, 3 STS"
        " stages:\n",
        "| B | launches | launches/member | halo msgs |",
        "|---|---|---|---|",
    ]
    for members, (launches, messages) in counts.items():
        out.append(
            f"| {members} | {launches} | {launches / members:.1f} | {messages} |"
        )
    out.append(
        "\nThe launch and MPI message counts do not move with B at all, so"
        " launches per member fall exactly as 1/B: a batched kernel's fixed"
        " launch cost is paid once for the whole batch (the same effect that"
        " makes the paper's kernel-launch overhead reduction matter)."
        " Simulated per-kernel *bytes* scale by B, so simulated walls grow"
        " ~B-fold -- the win is real-time throughput and launch/message"
        " economy, not simulated seconds. Real-time member throughput is a"
        " host-clock number and is tracked where those are: `work_per_s` of"
        " the `ensemble_b8` workload (`python3 -m bench --workload"
        " ensemble_b8`)."
    )
    return out
