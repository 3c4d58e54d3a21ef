"""Magnetic field-line tracing and open/closed classification.

The CORHEL workflow the paper describes (SIII) uses MAS solutions to map
coronal structure: field lines traced from the solar surface either close
back down (closed loops, hot streamers) or reach the outer boundary (open
flux, coronal holes, the solar-wind source). This module implements the
tracer over our face-staggered fields: midpoint (RK2) integration of
dx/ds = B/|B| through a trilinearly interpolated cell-centered field.

For a dipole the open/closed boundary has a closed form -- field lines
with footpoint colatitude theta0 close below r_max when
sin^2(theta0) > 1/r_max -- which the tests check the tracer against.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.mas.grid import LocalGrid
from repro.mas.operators import face_to_center
from repro.mas.state import MhdState


class FieldLineFate(enum.Enum):
    """Where a traced field line ended up."""

    CLOSED = "closed"      # returned to the inner boundary
    OPEN = "open"          # reached the outer boundary
    STALLED = "stalled"    # |B| ~ 0 or step budget exhausted


@dataclass(frozen=True)
class FieldLine:
    """One traced line: its sample points and classification."""

    points: np.ndarray  # (n, 3): r, theta, phi
    fate: FieldLineFate

    @property
    def max_r(self) -> float:
        """Apex radius of the line."""
        return float(self.points[:, 0].max())

    @property
    def length(self) -> float:
        """Approximate arc length (sum of Cartesian segment lengths)."""
        xyz = _sph_to_cart(self.points)
        return float(np.linalg.norm(np.diff(xyz, axis=0), axis=1).sum())


def _sph_to_cart(pts: np.ndarray) -> np.ndarray:
    r, t, p = pts[:, 0], pts[:, 1], pts[:, 2]
    return np.stack(
        [r * np.sin(t) * np.cos(p), r * np.sin(t) * np.sin(p), r * np.cos(t)],
        axis=1,
    )


class FieldLineTracer:
    """Traces lines through one rank's (ghosted) field arrays.

    Single-rank analysis tool: gather the global field first for
    decomposed runs (see `tests/mas/validate.py`'s `gather_global`).
    """

    def __init__(self, grid: LocalGrid, state: MhdState) -> None:
        self.grid = grid
        self.bcr, self.bct, self.bcp = face_to_center(state.br, state.bt, state.bp)
        self.r_lo = float(grid.re[grid.ghost])
        self.r_hi = float(grid.re[-1 - grid.ghost])
        self.t_lo = float(grid.te[grid.ghost])
        self.t_hi = float(grid.te[-1 - grid.ghost])

    # -- interpolation ------------------------------------------------------

    def _interp(self, r: float, t: float, p: float) -> np.ndarray:
        """Trilinear interpolation of the centered B at one point."""
        g = self.grid
        p = p % (2 * np.pi)

        def locate(coords: np.ndarray, x: float) -> tuple[int, float]:
            i = int(np.clip(np.searchsorted(coords, x) - 1, 0, coords.size - 2))
            f = (x - coords[i]) / (coords[i + 1] - coords[i])
            return i, float(np.clip(f, 0.0, 1.0))

        i, fr = locate(g.rc, r)
        j, ft = locate(g.tc, t)
        k, fp = locate(g.pc, p)
        out = np.zeros(3)
        for n, comp in enumerate((self.bcr, self.bct, self.bcp)):
            c00 = comp[i, j, k] * (1 - fr) + comp[i + 1, j, k] * fr
            c10 = comp[i, j + 1, k] * (1 - fr) + comp[i + 1, j + 1, k] * fr
            c01 = comp[i, j, k + 1] * (1 - fr) + comp[i + 1, j, k + 1] * fr
            c11 = comp[i, j + 1, k + 1] * (1 - fr) + comp[i + 1, j + 1, k + 1] * fr
            c0 = c00 * (1 - ft) + c10 * ft
            c1 = c01 * (1 - ft) + c11 * ft
            out[n] = c0 * (1 - fp) + c1 * fp
        return out

    def _rhs(self, pos: np.ndarray, sign: float) -> np.ndarray | None:
        b = self._interp(*pos)
        mag = np.linalg.norm(b)
        if mag < 1e-12:
            return None
        bhat = sign * b / mag
        r, t, _ = pos
        # d(r, theta, phi)/ds of a unit step along bhat in physical space
        return np.array(
            [bhat[0], bhat[1] / r, bhat[2] / (r * max(np.sin(t), 1e-10))]
        )

    # -- tracing -------------------------------------------------------------

    def trace(
        self,
        r0: float,
        t0: float,
        p0: float,
        *,
        step: float = 0.02,
        max_steps: int = 4000,
        direction: int = +1,
    ) -> FieldLine:
        """Trace one line from (r0, t0, p0) along +/-B (midpoint RK2)."""
        if direction not in (+1, -1):
            raise ValueError("direction must be +1 (along B) or -1")
        if step <= 0:
            raise ValueError("step must be positive")
        pos = np.array([r0, t0, p0], dtype=float)
        pts = [pos.copy()]
        fate = FieldLineFate.STALLED
        for _ in range(max_steps):
            k1 = self._rhs(pos, direction)
            if k1 is None:
                break
            mid = pos + 0.5 * step * k1
            mid[1] = np.clip(mid[1], self.t_lo, self.t_hi)
            k2 = self._rhs(mid, direction)
            if k2 is None:
                break
            pos = pos + step * k2
            pos[1] = np.clip(pos[1], self.t_lo, self.t_hi)
            pts.append(pos.copy())
            if pos[0] >= self.r_hi:
                fate = FieldLineFate.OPEN
                break
            if pos[0] <= self.r_lo and len(pts) > 3:
                fate = FieldLineFate.CLOSED
                break
        return FieldLine(points=np.array(pts), fate=fate)

    def classify_footpoint(self, t0: float, p0: float, **kw) -> FieldLineFate:
        """Open/closed fate of the surface footpoint at (t0, p0).

        Traces along the direction in which B points away from the
        surface (outward radial component).
        """
        r0 = self.r_lo + 1e-3
        b = self._interp(r0, t0, p0)
        direction = +1 if b[0] >= 0 else -1
        return self.trace(r0, t0, p0, direction=direction, **kw).fate

    def open_flux_map(
        self, n_theta: int = 16, n_phi: int = 8, **kw
    ) -> np.ndarray:
        """Boolean (n_theta, n_phi) map: True where the surface is open."""
        thetas = np.linspace(self.t_lo + 0.02, self.t_hi - 0.02, n_theta)
        phis = np.linspace(0, 2 * np.pi, n_phi, endpoint=False)
        out = np.zeros((n_theta, n_phi), dtype=bool)
        for j, t0 in enumerate(thetas):
            for k, p0 in enumerate(phis):
                out[j, k] = self.classify_footpoint(t0, p0, **kw) is FieldLineFate.OPEN
        return out


def dipole_open_boundary_colatitude(r_max: float) -> float:
    """Analytic open/closed boundary colatitude of a dipole.

    A dipole line with footpoint colatitude theta0 reaches apex
    r = 1/sin^2(theta0); it stays below r_max (closed) iff
    sin^2(theta0) > 1/r_max.
    """
    if r_max <= 1.0:
        raise ValueError("outer boundary must exceed the surface radius")
    return float(np.arcsin(np.sqrt(1.0 / r_max)))
