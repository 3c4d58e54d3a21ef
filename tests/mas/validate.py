"""Solution validation across code versions and rank counts.

The paper validated every code version's solution against the original
"to within solver tolerances" (SV-A). Our runtimes execute identical numpy
bodies, so cross-version agreement is *bit-exact*; cross-rank-count
agreement (1 rank vs N ranks) holds to accumulated floating-point
reassociation, checked with a tight relative tolerance.
"""

from __future__ import annotations

import numpy as np

from repro.mas.state import ALL_FIELDS, MhdState


def max_rel_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a-b| / max(|a|, |b|, tiny) over the common interior."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


def compare_states(a: MhdState, b: MhdState, *, interior_only: bool = True) -> dict[str, float]:
    """Per-field max relative differences between two rank states."""
    out = {}
    for name in ALL_FIELDS:
        x, y = a.get(name), b.get(name)
        if interior_only:
            x, y = x[1:-1, 1:-1, 1:-1], y[1:-1, 1:-1, 1:-1]
        out[name] = max_rel_diff(x, y)
    return out


def gather_global(states, decomp, field: str, face_axis: int | None = None) -> np.ndarray:
    """Reassemble a global interior array from per-rank ghosted arrays.

    For face fields, the shared boundary faces are written twice -- by
    construction they agree, so last-writer-wins is safe.
    """
    shape = list(decomp.global_shape)
    if face_axis is not None:
        shape[face_axis] += 1
    out = np.empty(tuple(shape))
    for r in decomp.iter_ranks():
        b = decomp.bounds(r)
        sl_global = []
        sl_local = []
        a = states[r].get(field)
        for axis in range(3):
            lo, hi = b[axis]
            n = hi - lo
            extra = 1 if axis == face_axis else 0
            sl_global.append(slice(lo, hi + extra))
            sl_local.append(slice(1, 1 + n + extra))
        out[tuple(sl_global)] = a[tuple(sl_local)]
    return out


def states_equivalent(
    states_a, decomp_a, states_b, decomp_b, *, tol: float = 1e-10
) -> dict[str, float]:
    """Compare two runs (possibly different rank counts) field by field.

    Returns per-field max relative differences; raises if the global grids
    disagree in shape.
    """
    if decomp_a.global_shape != decomp_b.global_shape:
        raise ValueError("runs discretize different global grids")
    face_axes = {"br": 0, "bt": 1, "bp": 2}
    gathered = {
        name: (
            gather_global(states_a, decomp_a, name, face_axes.get(name)),
            gather_global(states_b, decomp_b, name, face_axes.get(name)),
        )
        for name in ALL_FIELDS
    }
    # normalize by the solution scale so a field that is physically ~0
    # (pure roundoff noise) cannot register a spurious "relative" error
    scale = max(
        max(float(np.abs(a).max()), float(np.abs(b).max()))
        for a, b in gathered.values()
    )
    scale = max(scale, 1e-300)
    diffs = {
        name: float(np.abs(a - b).max()) / scale for name, (a, b) in gathered.items()
    }
    bad = {k: v for k, v in diffs.items() if v > tol}
    if bad:
        raise AssertionError(f"solutions diverge beyond tol={tol}: {bad}")
    return diffs
