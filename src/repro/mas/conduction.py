"""Spitzer-like thermal conduction, advanced with RKL2 STS.

The thermodynamic MHD model's stiffest parabolic term: kappa(T) ~ T^{5/2}.
MAS advances it with super time-stepping rather than implicit solves
(paper ref [25]); each RKL2 stage is one conduction-operator application
(one halo exchange plus stencil kernels).

The reproduction uses an isotropic kappa(T); MAS's field-aligned anisotropy
changes the stencil's coefficients, not its data traffic, which is what the
performance model consumes. Documented in DESIGN.md S2.
"""

from __future__ import annotations

import math

import numpy as np

from repro.mas.constants import PhysicsParams
from repro.mas.grid import GridGroup, LocalGrid
from repro.mas.operators import diffuse_flux_div, harmonic_face_coeff


def kappa_centered(
    temp: np.ndarray, params: PhysicsParams, out: np.ndarray | None = None
) -> np.ndarray:
    """kappa(T) = kappa0 * T^{5/2} at cell centers, floored for safety
    (into ``out`` when given)."""
    kap = np.maximum(temp, params.temp_floor, out=out)
    np.power(kap, 2.5, out=kap)
    kap *= params.kappa0
    return kap


def conduction_rhs(
    temp: np.ndarray, rho: np.ndarray, grid: LocalGrid | GridGroup, params: PhysicsParams
) -> np.ndarray:
    """dT/dt = (gamma-1)/rho * div(kappa(T) grad T), on one rank's block or
    on a group's stacks (``grid`` as in :func:`diffuse_flux_div`).

    Allocates the returned array only: kappa, the face coefficients and the
    floored density live in the group's scratch.
    """
    group = grid.group
    rows = math.prod(temp.shape[:-3]) // group.size
    cells = group.scratch(rows).cells.reshape(temp.shape)
    out = diffuse_flux_div(
        temp, group, harmonic_face_coeff(kappa_centered(temp, params, cells), group)
    )
    # ((gamma-1) * div) / rho, in place on the one fresh array (rim stays 0)
    inner = (Ellipsis, slice(1, -1), slice(1, -1), slice(1, -1))
    interior = out[inner]
    interior *= params.gamma - 1.0
    interior /= np.maximum(rho[inner], params.rho_floor, out=cells[inner])
    return out


def max_diffusivity(temp: np.ndarray, rho: np.ndarray, params: PhysicsParams) -> float:
    """Largest effective diffusion coefficient, for STS stage sizing."""
    kap = kappa_centered(temp[..., 1:-1, 1:-1, 1:-1], params)
    rho_i = np.maximum(rho[..., 1:-1, 1:-1, 1:-1], params.rho_floor)
    return float(((params.gamma - 1.0) * kap / rho_i).max())
