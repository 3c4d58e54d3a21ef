"""Non-uniform mesh spacing generators.

MAS uses a logically rectangular *non-uniform* spherical grid (paper SIII):
radially stretched to concentrate cells near the solar surface where
gradients are steep. These generators
produce edge coordinates; the grid object derives centers and metric
factors.
"""

from __future__ import annotations

import numpy as np


def uniform_spacing(lo: float, hi: float, n: int) -> np.ndarray:
    """``n + 1`` uniformly spaced edges over [lo, hi]."""
    if n < 1:
        raise ValueError("need at least one cell")
    if hi <= lo:
        raise ValueError("hi must exceed lo")
    return np.linspace(lo, hi, n + 1)


def geometric_spacing(lo: float, hi: float, n: int, ratio: float = 1.03) -> np.ndarray:
    """``n + 1`` edges with geometrically growing cell widths.

    ``ratio`` is the width growth factor per cell; 1.0 degenerates to
    uniform. MAS-like radial grids use a few percent growth so the first
    cells at the solar surface are much finer than the outer boundary.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    if hi <= lo:
        raise ValueError("hi must exceed lo")
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    if abs(ratio - 1.0) < 1e-12:
        return uniform_spacing(lo, hi, n)
    widths = ratio ** np.arange(n)
    widths *= (hi - lo) / widths.sum()
    edges = np.empty(n + 1)
    edges[0] = lo
    np.cumsum(widths, out=edges[1:])
    edges[1:] += lo
    edges[-1] = hi  # kill accumulation error exactly
    return edges
