"""Wall / MPI breakdown measurement (the Fig. 3 quantity).

The paper defines MPI time as "all MPI calls, buffer initialization/
loading/unloading, and MPI waiting caused by load imbalance" -- our
:class:`~repro.runtime.clock.SimClock` charges exactly those categories as
MPI, so the breakdown falls out of a run's clocks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.codes import CodeVersion
from repro.mas.plan import run_planned
from repro.perf.calibration import (
    Calibration,
    PAPER_CALIBRATION,
    model_settings,
    project_run_minutes,
)


@dataclass(frozen=True, slots=True)
class RunBreakdown:
    """One Fig. 3 bar: projected full-run minutes for one code version."""

    version: CodeVersion
    num_gpus: int
    wall_minutes: float
    mpi_minutes: float

    @property
    def non_mpi_minutes(self) -> float:
        """The green (Wall - MPI) portion."""
        return self.wall_minutes - self.mpi_minutes

    @property
    def mpi_fraction(self) -> float:
        """MPI share of the wall time."""
        return self.mpi_minutes / self.wall_minutes if self.wall_minutes else 0.0


def measure_breakdown(
    version: CodeVersion,
    num_gpus: int,
    *,
    calibration: Calibration = PAPER_CALIBRATION,
    plans: dict | None = None,
) -> RunBreakdown:
    """Run one code version and project its Fig. 3 bar.

    ``plans`` is a step-plan book the caller owns (start it as ``{}``) and
    passes to every measurement of one sweep: the first of each (model
    configuration, rank count) runs the physics and records its kernel
    stream, the others replay that stream onto their own runtime side and
    return the same numbers to the last bit (:mod:`repro.mas.plan`). Without
    a book the run is the live first run of a fresh one.
    """
    config, rt_config, hardware = model_settings(
        version, num_gpus, calibration=calibration
    )
    timings = run_planned(
        {} if plans is None else plans,
        calibration.warmup_steps + calibration.bench_steps,
        config,
        rt_config,
        **hardware,
    )
    wall, mpi = project_run_minutes(timings, calibration=calibration)
    return RunBreakdown(
        version=version, num_gpus=num_gpus, wall_minutes=wall, mpi_minutes=mpi
    )
