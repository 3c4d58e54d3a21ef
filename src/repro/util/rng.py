"""Deterministic RNG plumbing.

Everything stochastic in the reproduction (synthetic codebase layout, MHD
initial perturbations, load-imbalance jitter) flows from named, seeded
generators so every table and figure regenerates bit-identically.
"""

from __future__ import annotations

import zlib

import numpy as np

#: Root seed for the whole reproduction. Changing it changes cosmetic
#: details (e.g. which synthetic module a loop lands in) but must not change
#: any headline number; tests enforce that invariance for the metrics layer.
ROOT_SEED = 0x4D41_5320  # "MAS "


def make_rng(name: str, seed: int = ROOT_SEED) -> np.random.Generator:
    """Create a generator whose stream is a pure function of (seed, name)."""
    if not name:
        raise ValueError("rng name must be non-empty")
    tag = zlib.crc32(name.encode("utf-8"))
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def spawn_rngs(name: str, n: int, seed: int = ROOT_SEED) -> list[np.random.Generator]:
    """Create ``n`` independent child generators (e.g. one per MPI rank)."""
    if n < 0:
        raise ValueError("cannot spawn a negative number of generators")
    tag = zlib.crc32(name.encode("utf-8"))
    seq = np.random.SeedSequence([seed, tag])
    return [np.random.default_rng(s) for s in seq.spawn(n)]
