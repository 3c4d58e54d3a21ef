"""Single-process numpy callbacks for the generic PCG solvers.

The solvers in ``repro.mas.pcg`` take their dot products, axpys and
preconditioner as callbacks; the model passes kernel-charged ones
(``repro.mas.implicit_solve``), and the tests pass these: plain numpy,
no cost accounting, the reference the charged ones are checked against.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.mas.pcg import DotPairs, RankArrays


def numpy_dot(a: RankArrays, b: RankArrays) -> float:
    """Reference dot product (single-process, no cost accounting)."""
    return float(sum(np.vdot(x, y).real for x, y in zip(a, b)))


def numpy_dot_many(pairs: DotPairs) -> tuple[float, ...]:
    """Reference batched dot product (what one fused allreduce returns)."""
    return tuple(numpy_dot(a, b) for a, b in pairs)


def numpy_dot_batched(a: RankArrays, b: RankArrays) -> np.ndarray:
    """Reference per-member dot product over ``(B, ...)`` rank arrays."""
    total = None
    for xi, yi in zip(a, b):
        v = (xi * yi).sum(axis=tuple(range(1, xi.ndim)))
        total = v if total is None else total + v
    return np.asarray(total, dtype=float)


def numpy_dot_many_batched(pairs: DotPairs) -> np.ndarray:
    """Reference per-member fused dots: a ``(k, B)`` array."""
    return np.stack([numpy_dot_batched(a, b) for a, b in pairs])


def numpy_combine(
    y: RankArrays, alpha: float, z: RankArrays,
    roles: tuple[str, str] | None = None,
) -> None:
    """Reference in-place axpy (``roles`` names the recurrence for cost
    layers that issue per-role kernels; ignored here)."""
    for yi, zi in zip(y, z):
        yi += alpha * zi


def jacobi_preconditioner(diag: RankArrays) -> Callable[[RankArrays], RankArrays]:
    """Jacobi (diagonal) preconditioner from per-rank diagonal estimates."""
    for d in diag:
        if np.any(d <= 0):
            raise ValueError("Jacobi preconditioner needs a positive diagonal")
    inv = [1.0 / d for d in diag]

    def apply(r: RankArrays) -> RankArrays:
        return [ri * ii for ri, ii in zip(r, inv)]

    return apply
