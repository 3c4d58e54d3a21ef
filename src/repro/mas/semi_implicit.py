"""Semi-implicit wave stabilization (the Mikic/Linker operator).

MAS combines explicit and implicit time stepping (SIII): besides the
implicit viscosity, a semi-implicit operator smooths the velocity update
so the step is not limited by the fastest wave CFL. We implement the
classic reduced form: after the explicit momentum predictor, solve

    (I - theta * (c_max * dt)^2 * Lap) v_new = v*

per component -- an SPD system of the same shape as the backward-Euler
viscosity solve, so the model solves it with the same operator and
preconditioner (`repro.mas.viscosity.implicit_matvec` and
`jacobi_diagonal`, associating ``v - dt * (coeff * Lap v)``); this module
supplies only the coefficient (:func:`si_coefficient`) and the wave-speed
estimate. The operator damps exactly the wave modes the explicit step
cannot resolve; as dt -> 0 it reduces to the identity.
"""

from __future__ import annotations

import numpy as np

from repro.mas.grid import LocalGrid
from repro.mas.operators import face_to_center


def si_coefficient(c_max: np.ndarray, dt: np.ndarray, theta: float = 1.0) -> np.ndarray:
    """Effective diffusivity of the semi-implicit operator, per member.

    ``theta`` ~ 1 stabilizes the full wave CFL; larger values over-smooth,
    0 disables the operator.
    """
    if np.any(np.asarray(c_max) < 0) or np.any(np.asarray(dt) < 0):
        raise ValueError("wave speed and dt must be non-negative")
    if theta < 0:
        raise ValueError("theta cannot be negative")
    return theta * (c_max * dt) ** 2 / np.maximum(dt, 1e-300)


def fast_speed(state, interior: tuple, params) -> np.ndarray:
    """Fast magnetosonic speed ``sqrt(vA^2 + cs^2)`` at the ``interior``
    cells of ``state``: an :class:`~repro.mas.state.MhdState` or a group's
    blocks by field name (either has ``.get(name)``)."""
    bcr, bct, bcp = face_to_center(state.get("br"), state.get("bt"), state.get("bp"))
    rho = np.maximum(state.get("rho")[interior], params.rho_floor)
    va2 = (bcr[interior] ** 2 + bct[interior] ** 2 + bcp[interior] ** 2) / rho
    cs2 = params.sound_speed_sq(np.maximum(state.get("temp")[interior], params.temp_floor))
    return np.sqrt(va2 + cs2)


def max_wave_speed(state, grid: LocalGrid, params) -> np.ndarray:
    """Largest fast speed over the spatial axes of ``state`` (as in
    :func:`fast_speed`) on ``grid``'s interior: one per leading row, such
    as ``(G, B)`` for a group's blocks."""
    return fast_speed(state, grid.interior(), params).max(axis=(-3, -2, -1))
