"""Rank groups: the ranks of one ghosted local shape, stacked.

The paper's MAS issues each loop as one kernel over a rank's whole domain;
the simulated ranks here each issue their own, and at 8 ranks of a small
grid the per-call overhead of eight tiny numpy passes, not their
arithmetic, sets the host clock. Ranks whose ghosted blocks have one shape
form a group: each state field is one contiguous ``(G, B, ...)`` block
(``B`` ensemble members, 1 in a scalar run) whose rows the ranks'
:class:`~repro.mas.state.MhdState` arrays are, and the group's
centred-stencil metrics are stacked beside one scratch
(:class:`~repro.mas.grid.GridGroup`), so a kernel body can be one numpy
pass over the group. Every even decomposition is one group; a ragged one
(10x8x16 on 3 ranks) has two to eight. docs/PHYSICS.md S3b states where a
group's body runs and why the kernel stream does not move.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro.mas.grid import GridGroup, LocalGrid
from repro.mas.state import MhdState


def rank_view(block: np.ndarray, row: int) -> np.ndarray:
    """Rank ``row``'s arrays in a ``(G, B, ...)`` block: ``block[row]``, or
    at B = 1 the one member's 3-D ``block[row, 0]``. This is the one place
    a scalar run's layout differs: what a rank's state, a recorded plan's
    exchange shapes or a checkpoint see is what it was before blocks had a
    member axis."""
    return block[row, 0] if block.shape[1] == 1 else block[row]


class RankGroup(NamedTuple):
    """One group: its ranks in rank order, their metrics and scratch, and
    each state field as one ``(G, B, ...)`` block by name, the layout in
    which a block meets the stacked metrics.

    Arrays only: no grid, model or solve, so nothing a model stores refers
    back to it (docs/PHYSICS.md S3b).
    """

    ranks: tuple[int, ...]
    stencil: GridGroup
    fields: dict[str, np.ndarray]


def rank_groups(
    grids: Sequence[LocalGrid], make_members: Callable[[int], list[MhdState]]
) -> tuple[list[RankGroup], list[MhdState]]:
    """Group the ranks of ``grids`` by ghosted shape, in order of each
    group's first rank, and build their states from ``make_members(rank)``,
    one 3-D state per ensemble member.

    Returns the groups and each rank's state, whose arrays are rows of its
    group's ``(G, B, ...)`` blocks (:func:`rank_view`). The members are
    stacked straight into the blocks, one rank at a time, so no more than
    one rank's members are held beside them. A larger group's grids use
    rows of its stencil scratch.
    """
    by_shape: dict[tuple[int, int, int], list[int]] = {}
    for r, grid in enumerate(grids):
        by_shape.setdefault(grid.shape, []).append(r)
    groups, states = [], [None] * len(grids)
    for ranks in by_shape.values():
        blocks: dict[str, np.ndarray] = {}
        for row, r in enumerate(ranks):
            members = make_members(r)
            for f in fields(members[0]):
                parts = [getattr(m, f.name) for m in members]
                shape = (len(ranks), len(parts)) + parts[0].shape
                block = blocks.setdefault(f.name, np.empty(shape, parts[0].dtype))
                np.stack(parts, out=block[row])
            del members, parts
            states[r] = MhdState(**{name: rank_view(block, row) for name, block in blocks.items()})
        groups.append(RankGroup(tuple(ranks), GridGroup.of([grids[r] for r in ranks]), blocks))
    return groups, states  # type: ignore[return-value]
