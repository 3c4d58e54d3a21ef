"""MHD state containers.

Plasma variables (rho, T, v) are cell-centered; the magnetic field is
face-staggered for constrained transport. All arrays carry one ghost
layer; the model's halo/boundary machinery keeps ghosts coherent.

Ensemble batching: the model stores each field as rows of one
``(G, B, ...)`` block per rank group (:mod:`repro.mas.groups`), ``B``
ensemble members in front of the three spatial axes, with B = 1 for a
scalar run. A rank's :class:`MhdState` views its row: the ``(B, ...)``
arrays of an ensemble, or the 3-D arrays of its one member when B = 1.
All numeric code in this package treats the trailing three axes as
spatial (``a[..., i, j, k]`` indexing, negative/trailing-relative
``axis`` arguments), so it takes either.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.mas.grid import LocalGrid

#: Names of cell-centered state arrays, in canonical order.
CENTERED_FIELDS = ("rho", "temp", "vr", "vt", "vp")
#: Names of face-staggered field arrays and their stagger axis.
FACE_FIELDS = (("br", 0), ("bt", 1), ("bp", 2))
#: All state array names.
ALL_FIELDS = CENTERED_FIELDS + tuple(n for n, _ in FACE_FIELDS)
#: The velocity components, in the order the implicit solves take them.
VELOCITY_FIELDS = ("vr", "vt", "vp")

#: Stagger axis per field name (None for cell-centered fields).
STAGGER_AXES = {name: None for name in CENTERED_FIELDS}
STAGGER_AXES.update({name: axis for name, axis in FACE_FIELDS})


def member_field(value: np.ndarray) -> np.ndarray:
    """A per-member ``(B,)`` quantity shaped ``(B, 1, 1, 1)``, to broadcast
    against ``(G, B, nr, nt, np)`` blocks."""
    return value[:, None, None, None]


def stagger_axis(name: str) -> int | None:
    """Spatial stagger axis of a state field (None if cell-centered)."""
    if name not in STAGGER_AXES:
        raise KeyError(f"unknown state field {name!r}")
    return STAGGER_AXES[name]


@dataclass(slots=True)
class MhdState:
    """One rank's ghosted state arrays (3-D, or ``(B, ...)`` member-batched)."""

    rho: np.ndarray
    temp: np.ndarray
    vr: np.ndarray
    vt: np.ndarray
    vp: np.ndarray
    br: np.ndarray
    bt: np.ndarray
    bp: np.ndarray

    @classmethod
    def allocate(cls, grid: LocalGrid, dtype=np.float64) -> "MhdState":
        """Zero-initialized 3-D state with the grid's ghosted shapes."""
        c = grid.centered_shape()
        return cls(
            rho=np.zeros(c, dtype),
            temp=np.zeros(c, dtype),
            vr=np.zeros(c, dtype),
            vt=np.zeros(c, dtype),
            vp=np.zeros(c, dtype),
            br=np.zeros(grid.face_shape(0), dtype),
            bt=np.zeros(grid.face_shape(1), dtype),
            bp=np.zeros(grid.face_shape(2), dtype),
        )

    def member_view(self, b: int) -> "MhdState":
        """Zero-copy 3-D view of member ``b`` of a batched state."""
        if self.rho.ndim == 3:
            raise ValueError("state is not batched")
        return MhdState(**{f.name: getattr(self, f.name)[b] for f in fields(self)})

    def copy(self) -> "MhdState":
        """Deep copy of every array (dtype and batch layout preserved)."""
        return type(self)(
            **{f.name: getattr(self, f.name).copy() for f in fields(self)}
        )

    def get(self, name: str) -> np.ndarray:
        """Array by field name."""
        if name not in ALL_FIELDS:
            raise KeyError(f"unknown state field {name!r}")
        return getattr(self, name)

    def nbytes(self) -> int:
        """Total payload bytes across all arrays."""
        return sum(getattr(self, f.name).nbytes for f in fields(self))

    def assert_finite(self) -> None:
        """Raise if any array contains non-finite interior values."""
        for f in fields(self):
            a = getattr(self, f.name)
            # ghost rims may legitimately hold unset values; check core
            core = a[..., 1:-1, 1:-1, 1:-1]
            if not np.all(np.isfinite(core)):
                raise FloatingPointError(f"non-finite values in {f.name}")

