"""Seeded workload inputs.

The program under test receives only these values, never the seed. The
kernel stream per step does not depend on them (fixed PCG iterations and
STS stages), so every seed does the same amount of work on different
numbers. ``fig2_sweep``, ``lint_tree`` and ``port_tree`` take no seeded
input: their inputs are fixed by the paper (calibration, Table I/II
construct budget).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

ENSEMBLE_MEMBERS = 8


@dataclass(frozen=True)
class Inputs:
    """Everything a model workload varies with the seed."""

    perturbation: float               # initial density perturbation, [0.01, 0.03]
    b0: float                         # dipole strength, [0.9, 1.1]
    viscosities: tuple[float, ...]    # the ensemble's eight members, [2e-3, 1e-2]
    member: int                       # the member re-run serially as a check


def make_inputs(seed: int) -> Inputs:
    """Same seed, same inputs (stdlib RNG: nothing to import first)."""
    rng = random.Random(seed)
    return Inputs(
        perturbation=rng.uniform(0.01, 0.03),
        b0=rng.uniform(0.9, 1.1),
        viscosities=tuple(
            sorted(rng.uniform(2.0e-3, 1.0e-2) for _ in range(ENSEMBLE_MEMBERS))
        ),
        member=rng.randrange(ENSEMBLE_MEMBERS),
    )
