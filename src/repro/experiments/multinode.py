"""Extension experiment: scaling beyond one node (8 -> 64 GPUs).

The paper measures up to one Delta node (8 A100s); MAS itself scales "to
thousands of CPU cores or dozens of GPUs" (SIII). This extension carries
the calibrated model across nodes: intra-node halo messages keep riding
NVLink while inter-node messages cross the Slingshot fabric, so strong
scaling bends where the surface-to-volume ratio meets the fabric's much
lower bandwidth -- and the UM codes, already page-migration-bound, barely
notice the fabric at all.

Not a paper artifact: no paper numbers exist to compare against;
``tests/experiments/test_multinode.py`` asserts mechanism properties only.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion, runtime_config_for, version_info
from repro.machine.cluster import GpuCluster
from repro.mas.model import ModelConfig
from repro.mas.plan import run_planned
from repro.perf.calibration import Calibration, MEASURE_SHAPE, PAPER_CALIBRATION, project_run_minutes
from repro.util.ascii_plot import AsciiLinePlot
from repro.util.tables import Table

#: GPU counts of the extension sweep (8 = the paper's endpoint).
GPU_COUNTS = (8, 16, 32, 64)
GPUS_PER_NODE = 8


@dataclass(frozen=True)
class MultiNodeResult:
    """Wall/MPI minutes per (version, gpu count)."""

    minutes: dict[tuple[CodeVersion, int], tuple[float, float]]

    def wall(self, version: CodeVersion, num_gpus: int) -> float:
        """Projected wall minutes."""
        return self.minutes[(version, num_gpus)][0]

    def mpi(self, version: CodeVersion, num_gpus: int) -> float:
        """Projected MPI minutes."""
        return self.minutes[(version, num_gpus)][1]

    def speedup(self, version: CodeVersion, num_gpus: int) -> float:
        """Relative to the 8-GPU (single-node) point."""
        return self.wall(version, 8) / self.wall(version, num_gpus)


def run_multinode(
    versions: tuple[CodeVersion, ...] = (CodeVersion.A, CodeVersion.AD, CodeVersion.ADU),
    *,
    gpu_counts: tuple[int, ...] = GPU_COUNTS,
    calibration: Calibration = PAPER_CALIBRATION,
    shape: tuple[int, int, int] = (12, 8, 64),
) -> MultiNodeResult:
    """Measure the multi-node sweep: the physics once per GPU count, the
    other versions re-pricing its recorded kernel stream."""
    minutes = {}
    plans: dict = {}
    for v in versions:
        for n in gpu_counts:
            timings = run_planned(
                plans,
                calibration.warmup_steps + calibration.bench_steps,
                ModelConfig(
                    shape=shape,
                    num_ranks=n,
                    pcg_iters=calibration.pcg_iters,
                    sts_stages=calibration.sts_stages,
                    extra_model_arrays=67,
                ),
                runtime_config_for(v),
                cluster=GpuCluster.of_delta_nodes(max(1, n // GPUS_PER_NODE)),
                **calibration.hardware(),
            )
            minutes[(v, n)] = project_run_minutes(timings, calibration=calibration)
    return MultiNodeResult(minutes)


def render_multinode(result: MultiNodeResult) -> str:
    """Scaling table + log-log plot of the extension sweep."""
    versions = sorted({v for v, _ in result.minutes}, key=lambda v: v.value)
    counts = sorted({n for _, n in result.minutes})
    t = Table(
        ["code", *[f"{n} GPUs" for n in counts], f"speedup@{counts[-1]}"],
        title="Extension: multi-node strong scaling (projected wall minutes)",
    )
    plot = AsciiLinePlot(
        title="multi-node scaling (log-log)", xlabel="# A100 GPUs (8/node)",
        ylabel="wall minutes",
    )
    for v in versions:
        t.add_row(
            [
                version_info(v).tag,
                *[result.wall(v, n) for n in counts],
                f"{result.speedup(v, counts[-1]):.2f}x",
            ]
        )
        plot.add_series(
            version_info(v).tag, list(counts), [result.wall(v, n) for n in counts]
        )
    return t.render() + "\n\n" + plot.render()


run = run_multinode
render = render_multinode


def section(result: MultiNodeResult) -> list[str]:
    return [
        'MAS scales "to thousands of CPU cores or dozens of GPUs" (SIII); the'
        " paper measures one node. `repro multinode` carries the paper"
        " calibration across Delta nodes (8 GPUs each): intra-node messages"
        " keep riding NVLink, inter-node messages cross the Slingshot fabric."
        " No paper numbers exist to compare against; the shape claims are"
        " asserted on these numbers by `tests/experiments/test_multinode.py`.\n",
        "```\n" + render_multinode(result) + "\n```",
        "\nCode 1 keeps scaling across the fabric, sub-linearly; the"
        " synchronous DC code scales worse (launch gaps do not shrink with"
        " the local grid); the unified-memory code is pinned by page"
        " migration and barely notices the extra GPUs.",
    ]
