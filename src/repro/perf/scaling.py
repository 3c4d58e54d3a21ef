"""Strong-scaling measurement (the Fig. 2 quantity)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion
from repro.perf.breakdown import RunBreakdown, measure_breakdown
from repro.perf.calibration import Calibration, PAPER_CALIBRATION

#: GPU counts of Fig. 2.
GPU_COUNTS = (1, 2, 4, 8)


@dataclass(frozen=True, slots=True)
class ScalingPoint:
    """One (gpu count, wall minutes) point of a Fig. 2 series."""

    num_gpus: int
    wall_minutes: float
    mpi_minutes: float


@dataclass(frozen=True)
class ScalingSeries:
    """One code version's Fig. 2 curve."""

    version: CodeVersion
    points: tuple[ScalingPoint, ...]

    def wall(self, num_gpus: int) -> float:
        """Wall minutes at one GPU count."""
        for p in self.points:
            if p.num_gpus == num_gpus:
                return p.wall_minutes
        raise KeyError(f"no point at {num_gpus} GPUs")

    def speedup(self, num_gpus: int) -> float:
        """Speedup relative to the series' own 1-GPU point."""
        return self.wall(1) / self.wall(num_gpus)

    def ideal(self) -> "ScalingSeries":
        """Ideal-scaling reference anchored at this series' 1-GPU time."""
        base = self.wall(1)
        return ScalingSeries(
            version=self.version,
            points=tuple(
                ScalingPoint(p.num_gpus, base / p.num_gpus, 0.0) for p in self.points
            ),
        )


def measure_scaling(
    version: CodeVersion,
    *,
    gpu_counts: tuple[int, ...] = GPU_COUNTS,
    calibration: Calibration = PAPER_CALIBRATION,
    plans: dict | None = None,
) -> ScalingSeries:
    """Measure one code version's scaling curve (``plans``: the sweep's
    step-plan book, see :func:`~repro.perf.breakdown.measure_breakdown`)."""
    points = []
    for n in gpu_counts:
        b: RunBreakdown = measure_breakdown(
            version, n, calibration=calibration, plans=plans
        )
        points.append(ScalingPoint(n, b.wall_minutes, b.mpi_minutes))
    return ScalingSeries(version=version, points=tuple(points))
