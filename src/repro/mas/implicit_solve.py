"""The implicit viscosity solve, ``(I - dt nu Lap) v = v*`` per component.

One :class:`ImplicitSolve` is the solve of one step: its methods are the
callbacks :mod:`repro.mas.pcg` takes, each issuing one kernel per rank
through ``MasModel.launch`` and doing its numpy work once per rank group.
docs/PHYSICS.md S3b lists the kernel names and who owns the iterates.

An instance lives for one solve and nothing the model stores may refer to
it: it holds the model, so a stored one is a reference cycle that keeps a
dropped model's arrays alive until the cyclic collector happens to run.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

import numpy as np

from repro.mas.boundary import apply_centered_boundary
from repro.mas.grid import stack_rows
from repro.mas.pcg import (
    DotPairs,
    PcgResult,
    RankArrays,
    chebyshev_preconditioner,
    jacobi_spectral_bounds,
    pcg_solve,
    pcg_solve_ca,
    pcg_solve_pipelined,
)
from repro.mas.state import VELOCITY_FIELDS, member_field
from repro.mas.viscosity import implicit_matvec, jacobi_diagonal
from repro.mpi.collectives import allreduce_many, allreduce_many_begin, allreduce_sum

if TYPE_CHECKING:
    from repro.mas.model import MasModel

#: PCG recurrence roles -> (written array, read array) of the axpy kernel.
#: Naming each recurrence's own arrays (instead of charging every axpy to
#: pcg_p/pcg_z) makes back-to-back axpys of different recurrences
#: data-independent, so the cross-region fusion window can collapse them.
_AXPY_ROLES = {
    ("p", "u"): ("pcg_p", "pcg_z"),
    ("s", "w"): ("pcg_s", "pcg_ap"),
    ("q", "m"): ("pcg_q", "pcg_z"),
    ("z", "n"): ("pcg_az", "pcg_ap"),
}

#: The cost tag of every kernel of the solve.
_TAGS = frozenset({"viscosity"})


def dot_rows(pairs: Sequence[tuple[np.ndarray, np.ndarray]]) -> np.ndarray:
    """The ``(k, G, B)`` dots of ``k`` pairs of contiguous ``(G, B, ...)``
    blocks: one ``np.vdot`` per (pair, rank, member) row, in one flat list,
    so each row reduces its elements as a lone member on a lone rank would
    and every allreduce input keeps its bits."""
    g, b = pairs[0][0].shape[:2]
    rows = [
        np.vdot(x, y)
        for xs, ys in pairs
        for x, y in zip(xs.reshape(g * b, -1), ys.reshape(g * b, -1))
    ]
    return np.array(rows).reshape(len(pairs), g, b)


class ImplicitSolve:
    """The PCG callbacks of one viscosity solve: kernels named ``visc_...``
    and tagged ``viscosity``.

    The solver's arrays are one ``(G, B, ...)`` stack per rank group
    (:mod:`repro.mas.groups`), and each callback's numpy work is one pass
    per group (``MasModel.launch``). The ``(B,)`` viscosity ``coeff`` and
    ``dt`` broadcast as (B,1,1,1) coefficient fields: each member sees
    exactly the scalar operator its serial run would, but every matvec/axpy
    kernel covers the whole batch.
    """

    def __init__(self, model: "MasModel", coeff: np.ndarray, dt: np.ndarray) -> None:
        self.model = model
        self.coeff = member_field(coeff)
        self.dt = member_field(dt)
        grids = model.local_grids
        self.interiors = [grids[group.ranks[0]].interior() for group in model.groups]
        #: One (G, B, ...) stack per group.
        self.diags = [
            stack_rows([jacobi_diagonal(grids[r], self.coeff, self.dt) for r in group.ranks])
            for group in model.groups
        ]

    def _launch(self, kernel: str, body: Callable[[int], Any], **spec: Any) -> list:
        return self.model.launch(f"visc_{kernel}", body, tags=_TAGS, **spec)

    def apply_a(self, comp: str, xs: RankArrays) -> RankArrays:
        """``A x`` behind one exchange of the iterate's ghosts; ``vt`` is
        odd across the poles."""
        m, anti = self.model, comp == "vt"

        def body(g: int) -> np.ndarray:
            apply_centered_boundary(xs[g], m.boundary[g], antisymmetric_theta=anti)
            return implicit_matvec(xs[g], m.groups[g].stencil, self.coeff, self.dt)

        return self._launch(f"matvec_{comp}", body, exchange=("pcg_p", xs),
                            reads=("pcg_p", "rho"), writes=("pcg_ap",))

    def local_matvec(self, xs: RankArrays) -> RankArrays:
        """Rank-local ``A x``, no exchange: the Chebyshev polynomial's."""
        groups = self.model.groups
        return self._launch(
            "precond_matvec",
            lambda g: implicit_matvec(xs[g], groups[g].stencil, self.coeff, self.dt),
            reads=("pcg_z", "pcg_diag"), writes=("pcg_ap",),
        )

    def _reduce(self, kernel: str, collective: Callable, body: Callable[[int], Any]) -> Any:
        """Per-rank partials, ``body(g)`` giving group ``g``'s in rank
        order, reduced by ``collective`` over the ranks."""
        partials = self.model.rank_rows(self._launch(
            kernel, body, entry="scalar_reduction", reads=("pcg_r", "pcg_z")))
        return self.model.runtime.allreduce(collective, partials)

    def _dots(self, pairs: DotPairs) -> Callable[[int], np.ndarray]:
        """Group ``g``'s partial dots of ``pairs``, ``(G, k, B)``. Each
        distinct operand's interior is copied contiguous once, for every
        pair that reads it (:func:`dot_rows`)."""
        def body(g: int) -> np.ndarray:
            i = self.interiors[g]
            arrays = {id(x[g]): x[g] for pair in pairs for x in pair}
            interior = {key: np.ascontiguousarray(a[i]) for key, a in arrays.items()}
            rows = dot_rows([(interior[id(a[g])], interior[id(b[g])]) for a, b in pairs])
            return rows.swapaxes(0, 1)

        return body

    def dot(self, a: RankArrays, b: RankArrays) -> np.ndarray:
        """Per-member ``(B,)`` global dot under one blocking reduction."""
        dots = self._dots([(a, b)])
        return self._reduce("dot", allreduce_sum, lambda g: dots(g)[:, 0])

    def dot_many(self, collective: Callable, pairs: DotPairs) -> Any:
        """Per-rank ``(k, B)`` partial dots under one fused reduction,
        blocking (``allreduce_many``) or posted (``allreduce_many_begin``)."""
        return self._reduce("dot_many", collective, self._dots(pairs))

    def combine(
        self, ys: RankArrays, alpha: float, zs: RankArrays,
        roles: tuple[str, str] = ("p", "u"),
    ) -> None:
        wname, rname = _AXPY_ROLES[roles]

        def body(g: int) -> None:
            ys[g] += alpha * zs[g]

        self._launch(f"axpy_{roles[0]}", body, reads=(wname, rname), writes=(wname,))

    def precondition(self, cheby: Callable | None, rs: RankArrays) -> RankArrays:
        """Jacobi (``cheby`` None) issues one ``visc_precond`` kernel per
        rank per application; Chebyshev issues it after its polynomial."""
        diags = self.diags
        zs = None if cheby is None else cheby(rs)  # charges its matvec kernels
        return self._launch(
            "precond", lambda g: rs[g] / diags[g] if zs is None else zs[g],
            reads=("pcg_r", "pcg_diag"), writes=("pcg_z",),
        )

    def chebyshev(self) -> Callable[[RankArrays], RankArrays]:
        """The Chebyshev polynomial over this solve's operator.

        It additionally issues ``degree - 1`` rank-local
        ``visc_precond_matvec`` stencil kernels -- no halo exchanges and no
        reductions, so it adds zero MPI while damping the whole bounded
        spectrum.  The ghost zones of the inverse diagonal are zeroed so the
        polynomial acts on a purely rank-local linear operator (ghost cells
        are annihilated instead of coupling in stale, asymmetric values),
        and the upper spectral bound carries a safety margin: the Chebyshev
        polynomial stays positive below the interval but can change sign
        above it, so overestimating ``lam_max`` is safe while undershooting
        it would make the preconditioner indefinite.
        """
        inv_diags = []
        for d, i in zip(self.diags, self.interiors):
            inv = np.zeros_like(d)
            inv[i] = 1.0 / d[i]
            inv_diags.append(inv)
        lam_min, lam_max = jacobi_spectral_bounds(self.diags)
        return chebyshev_preconditioner(
            self.local_matvec,
            inv_diags,
            degree=self.model.config.cheby_degree,
            lam_min=lam_min,
            lam_max=1.05 * lam_max,
        )

    def run(self) -> Iterator[PcgResult]:
        """Solve the three velocity components in place, one result each.

        The preconditioner is a local of this call: stored on ``self`` a
        closure over ``self`` would be the cycle the module docstring bars.
        """
        cfg = self.model.config
        variant = cfg.pcg_variant
        # Solver names are module globals looked up per call (not a table
        # built at import) so the bench tracer can rebind them.
        reductions: dict[str, Any]
        dot_many = partial(self.dot_many, allreduce_many)
        if variant == "classic":
            solver, reductions = pcg_solve, {"dot": self.dot}
        elif variant == "ca":
            solver, reductions = pcg_solve_ca, {"dot_many": dot_many}
        else:
            solver, reductions = pcg_solve_pipelined, {"dot_many": dot_many}
            if self.model.runtime.pipelined_reductions:
                reductions.update(
                    dot_many_begin=partial(self.dot_many, allreduce_many_begin),
                    dot_many_finish=self.model.runtime.allreduce_finish,
                )
        precondition = partial(
            self.precondition,
            self.chebyshev() if cfg.pcg_precond == "cheby" else None,
        )
        span = self.model.runtime.span
        for comp in VELOCITY_FIELDS:
            arrays = [group.fields[comp] for group in self.model.groups]
            rhs = [a.copy() for a in arrays]
            with span("step/viscosity/pcg", component=comp, variant=variant):
                yield solver(
                    partial(self.apply_a, comp),
                    rhs,
                    arrays,
                    precondition=precondition,
                    combine=self.combine,
                    iterations=cfg.pcg_iters,
                    tol=cfg.pcg_tol,
                    ndim=arrays[0].ndim - 1,
                    **reductions,
                )
