"""Rank groups: the ranks of one ghosted local shape, stacked.

The paper's MAS issues each loop as one kernel over a rank's whole domain;
the simulated ranks here each issue their own, and at 8 ranks of a small
grid the per-call overhead of eight tiny numpy passes, not their
arithmetic, sets the host clock. Ranks whose ghosted blocks have one shape
form a group: each state field is one contiguous ``(G, [B,] ...)`` block
whose rows the ranks' :class:`~repro.mas.state.MhdState` arrays are, and
the group's centred-stencil metrics are stacked beside one scratch
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
from repro.mas.state import EnsembleState, MhdState


class RankGroup(NamedTuple):
    """One group: its ranks in rank order, their metrics and scratch, each
    state field as one ``(G, [B,] ...)`` block by name, and the same blocks
    viewed ``(G, B, ...)`` (``B`` is 1 in the scalar layout), the layout in
    which a block meets the stacked metrics (``GridGroup.members``).

    Arrays only: no grid, model or solve, so nothing a model stores refers
    back to it (docs/PHYSICS.md S3b).
    """

    ranks: tuple[int, ...]
    stencil: GridGroup
    state: dict[str, np.ndarray]
    fields: dict[str, np.ndarray]


def rank_groups(
    grids: Sequence[LocalGrid],
    make_members: Callable[[int], list[MhdState]],
    *,
    batched: bool,
) -> tuple[list[RankGroup], list[MhdState]]:
    """Group the ranks of ``grids`` by ghosted shape, in order of each
    group's first rank, and build their states from ``make_members(rank)``,
    one scalar state per ensemble member.

    Returns the groups and each rank's state, whose arrays are rows of its
    group's blocks: ``(G, B, ...)`` when ``batched``, else ``(G, ...)`` of
    the one member. A lone scalar rank's block is a view of the arrays it
    was built in; otherwise the members are stacked straight into the
    blocks, one rank at a time, so no more than one rank's members are held
    beside them. A larger group's grids use rows of its stencil scratch.
    """
    by_shape: dict[tuple[int, int, int], list[int]] = {}
    for r, grid in enumerate(grids):
        by_shape.setdefault(grid.shape, []).append(r)
    cls = EnsembleState if batched else MhdState
    groups, states = [], [None] * len(grids)
    for ranks in by_shape.values():
        blocks: dict[str, np.ndarray] = {}
        for row, r in enumerate(ranks):
            members = make_members(r)
            for f in fields(members[0]):
                parts = [getattr(m, f.name) for m in members]
                if len(ranks) == 1 and not batched:
                    blocks[f.name] = parts[0][np.newaxis]
                    continue
                shape = (len(ranks),) + (len(parts),) * batched + parts[0].shape
                block = blocks.setdefault(f.name, np.empty(shape, parts[0].dtype))
                np.stack(parts, out=block[row] if batched else block[row : row + 1])
            del members, parts
            states[r] = cls(**{name: block[row] for name, block in blocks.items()})
        stencil = GridGroup.of([grids[r] for r in ranks])
        groups.append(RankGroup(
            tuple(ranks), stencil, blocks,
            {name: stencil.members(block) for name, block in blocks.items()},
        ))
    return groups, states  # type: ignore[return-value]
