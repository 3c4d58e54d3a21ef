"""RKL2 super time-stepping for parabolic operators.

MAS advances thermal conduction (and other parabolic terms) with explicit
super time-stepping instead of implicit Krylov solves (paper ref [25],
Caplan et al. 2017). RKL2 is a Runge-Kutta-Legendre scheme: ``s`` cheap
explicit stages cover a parabolic step of length ~s^2 * dt_explicit,
each stage being one operator application plus a halo exchange -- a very
characteristic kernel stream in the profiler.

Coefficients follow Meyer, Balsara & Aslam (2014).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

RankArrays = list[np.ndarray]


@dataclass(frozen=True, slots=True)
class Rkl2Coefficients:
    """Stage coefficients mu~, mu_j, nu_j, gamma~ for RKL2 with s stages."""

    s: int
    mu_tilde: np.ndarray
    mu: np.ndarray
    nu: np.ndarray
    gamma_tilde: np.ndarray


def rkl2_coefficients(s: int) -> Rkl2Coefficients:
    """Compute RKL2 coefficients for ``s >= 2`` stages."""
    if s < 2:
        raise ValueError("RKL2 needs at least 2 stages")
    j = np.arange(s + 1, dtype=float)
    b = np.empty(s + 1)
    b[:2] = 1.0 / 3.0
    jj = j[2:]
    b[2:] = (jj**2 + jj - 2.0) / (2.0 * jj * (jj + 1.0))
    a = 1.0 - b
    w1 = 4.0 / (s**2 + s - 2.0)

    mu_tilde = np.zeros(s + 1)
    mu = np.zeros(s + 1)
    nu = np.zeros(s + 1)
    gamma_tilde = np.zeros(s + 1)
    mu_tilde[1] = b[1] * w1
    for jj_ in range(2, s + 1):
        mu[jj_] = (2.0 * jj_ - 1.0) / jj_ * b[jj_] / b[jj_ - 1]
        nu[jj_] = -(jj_ - 1.0) / jj_ * b[jj_] / b[jj_ - 2]
        mu_tilde[jj_] = mu[jj_] * w1
        gamma_tilde[jj_] = -a[jj_ - 1] * mu_tilde[jj_]
    return Rkl2Coefficients(s, mu_tilde, mu, nu, gamma_tilde)


def rkl2_advance(
    apply_l: Callable[[RankArrays], RankArrays],
    u: RankArrays,
    dt: float | np.ndarray,
    s: int,
    *,
    on_stage: Callable[[int], None] | None = None,
) -> RankArrays:
    """Advance du/dt = L(u) by ``dt`` with an s-stage RKL2 super step.

    ``apply_l`` is called once per stage (plus once for the initial
    operator evaluation); ``on_stage`` is a hook the model uses to account
    stage bookkeeping. ``u`` is a list of independent arrays (one per
    rank, or one stack per rank group); returns them advanced (inputs are
    not mutated). ``dt`` may be a per-member array broadcastable against the
    state arrays (shape ``(B, 1, 1, 1)``).
    """
    if np.any(np.asarray(dt) < 0):
        raise ValueError("dt cannot be negative")
    c = rkl2_coefficients(s)
    y0 = [a.copy() for a in u]
    l0 = apply_l(y0)
    yjm2 = y0
    yjm1 = [a + c.mu_tilde[1] * dt * b for a, b in zip(y0, l0)]
    if on_stage is not None:
        on_stage(1)
    for j in range(2, s + 1):
        lj = apply_l(yjm1)
        yj = [
            c.mu[j] * a1
            + c.nu[j] * a2
            + (1.0 - c.mu[j] - c.nu[j]) * a0
            + c.mu_tilde[j] * dt * lj_
            + c.gamma_tilde[j] * dt * l0_
            for a1, a2, a0, lj_, l0_ in zip(yjm1, yjm2, y0, lj, l0)
        ]
        yjm2, yjm1 = yjm1, yj
        if on_stage is not None:
            on_stage(j)
    return yjm1
