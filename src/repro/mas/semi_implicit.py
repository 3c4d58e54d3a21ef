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


def si_coefficient(
    c_max: float | np.ndarray, dt: float | np.ndarray, theta: float = 1.0
):
    """Effective diffusivity of the semi-implicit operator.

    ``theta`` ~ 1 stabilizes the full wave CFL; larger values over-smooth,
    0 disables the operator. Per-member (array) wave speeds and steps
    yield a per-member coefficient.
    """
    if np.any(np.asarray(c_max) < 0) or np.any(np.asarray(dt) < 0):
        raise ValueError("wave speed and dt must be non-negative")
    if theta < 0:
        raise ValueError("theta cannot be negative")
    if isinstance(c_max, np.ndarray) or isinstance(dt, np.ndarray):
        return theta * (c_max * dt) ** 2 / np.maximum(dt, 1e-300)
    return theta * (c_max * dt) ** 2 / max(dt, 1e-300)


def max_wave_speed(state, grid: LocalGrid, params) -> float | np.ndarray:
    """Fast magnetosonic estimate over the interior (per rank).

    Batched states yield a per-member ``(B,)`` array (max over the
    spatial axes only); scalar states keep the float return.
    """
    from repro.mas.operators import face_to_center

    i = grid.interior()
    bcr, bct, bcp = face_to_center(state.br, state.bt, state.bp)
    rho = np.maximum(state.rho[i], params.rho_floor)
    va2 = (bcr[i] ** 2 + bct[i] ** 2 + bcp[i] ** 2) / rho
    cs2 = params.sound_speed_sq(np.maximum(state.temp[i], params.temp_floor))
    speed = np.sqrt(va2 + cs2)
    if speed.ndim == 3:
        return float(speed.max())
    return speed.max(axis=(-3, -2, -1))
