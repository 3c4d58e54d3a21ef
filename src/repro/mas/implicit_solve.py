"""One implicit velocity solve, ``(I - dt coeff Lap) v = v*`` per component.

Viscosity and the semi-implicit wave operator are the same SPD system with
a different coefficient (:mod:`repro.mas.semi_implicit`): both are one
:class:`ImplicitSolve`, whose methods are the callbacks :mod:`repro.mas.pcg`
takes, each issuing one kernel per rank through ``MasModel.launch_groups``
and doing its numpy work once per rank group. docs/PHYSICS.md S3b lists
the kernel names and who owns the iterates.

An instance lives for one solve and nothing the model stores may refer to
it: it holds the model, so a stored one is a reference cycle that keeps a
dropped model's arrays alive until the cyclic collector happens to run.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

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


def _pair_dot(x: np.ndarray, y: np.ndarray) -> float | np.ndarray:
    """One (pair of) interior dot(s): float, or (B,) per member.

    The per-member values are each computed by the same ``np.vdot`` over
    the same elements as the member's serial run -- bitwise-identical
    reductions, one kernel.
    """
    if x.ndim == 3:
        return float(np.vdot(x, y).real)
    return np.array([float(np.vdot(xb, yb).real) for xb, yb in zip(x, y)])


class ImplicitSolve:
    """The PCG callbacks of one solve: kernels named ``{tag}_...`` and
    charged to ``cost_tag``.

    The solver's arrays are one ``(G, [B,] ...)`` stack per rank group
    (:mod:`repro.mas.groups`), and each callback's numpy work is one pass
    per group (``MasModel.launch_groups``). Per-member ``coeff``/``dt``
    broadcast as (B,1,1,1) coefficient fields: each member sees exactly
    the scalar operator its serial run would, but every matvec/axpy
    kernel covers the whole batch.
    """

    def __init__(
        self, model: "MasModel", coeff: float | np.ndarray, dt: float | np.ndarray,
        tag: str, cost_tag: str,
    ) -> None:
        self.model = model
        self.coeff = member_field(coeff)
        self.dt = member_field(dt)
        self.tag = tag
        self.cost_tag = cost_tag
        self.tags = frozenset({cost_tag})
        grids = model.local_grids
        self.interiors = [grids[group.ranks[0]].interior() for group in model.groups]
        # One (G, [B or 1,] ...) stack per group: a diagonal without a
        # member axis (scalar coeff and dt) gets one of size 1, so it
        # broadcasts against the members and never against the ranks.
        batched = model.ensemble
        self.diags = []
        for group in model.groups:
            diag = stack_rows([jacobi_diagonal(grids[r], self.coeff, self.dt)
                               for r in group.ranks])
            self.diags.append(diag[:, np.newaxis] if batched and diag.ndim == 4 else diag)

    def _launch(self, kernel: str, body: Callable[[int], Any], **spec: Any) -> list:
        return self.model.launch_groups(
            f"{self.tag}_{kernel}", body, tags=self.tags, **spec
        )

    def apply_a(self, comp: str, xs: RankArrays) -> RankArrays:
        """``A x`` behind one exchange of the iterate's ghosts; ``vt`` is
        odd across the poles."""
        m, anti = self.model, comp == "vt"

        def body(g: int) -> np.ndarray:
            group = m.groups[g]
            for x, r in zip(xs[g], group.ranks):
                apply_centered_boundary(x, m.decomp, r, antisymmetric_theta=anti)
            return implicit_matvec(xs[g], group.stencil, self.coeff, self.dt)

        return self._launch(f"matvec_{comp}", body, exchange=("pcg_p", m.rank_rows(xs)),
                            reads=("pcg_p", "rho"), writes=("pcg_ap",))

    def local_matvec(self, xs: RankArrays) -> RankArrays:
        """Rank-local ``A x``, no exchange: the Chebyshev polynomial's."""
        groups = self.model.groups
        return self._launch(
            "precond_matvec",
            lambda g: implicit_matvec(xs[g], groups[g].stencil, self.coeff, self.dt),
            reads=("pcg_z", "pcg_diag"), writes=("pcg_ap",),
        )

    def _reduce(self, kernel: str, collective: Callable, body: Callable[[int], list]) -> Any:
        """Per-rank partials, ``body(g)`` giving group ``g``'s in rank
        order, reduced by ``collective`` over the ranks."""
        partials = self.model.rank_rows(self._launch(
            kernel, body, entry="scalar_reduction", reads=("pcg_r", "pcg_z")))
        return self.model.runtime.allreduce(collective, partials)

    def dot(self, a: RankArrays, b: RankArrays) -> float | np.ndarray:
        def body(g: int) -> list:
            i = self.interiors[g]
            x, y = np.ascontiguousarray(a[g][i]), np.ascontiguousarray(b[g][i])
            return [_pair_dot(xr, yr) for xr, yr in zip(x, y)]

        total = self._reduce("dot", allreduce_sum, body)
        return total if isinstance(total, np.ndarray) else float(total)

    def dot_many(self, collective: Callable, pairs: DotPairs) -> Any:
        """Per-rank partial dots under one fused reduction, blocking
        (``allreduce_many``) or posted (``allreduce_many_begin``).

        Scalar runs contribute a (k,) vector per rank; ensemble runs a
        (k, B) matrix -- still ONE collective either way. Each distinct
        operand's interior is copied contiguous once per group, for every
        pair that reads it, and each rank row is reduced on its own: the
        partials are those of a rank-by-rank pass.
        """
        def body(g: int) -> list:
            i = self.interiors[g]
            arrays = {id(x[g]): x[g] for pair in pairs for x in pair}
            interior = {key: np.ascontiguousarray(a[i]) for key, a in arrays.items()}
            rows = [(interior[id(a[g])], interior[id(b[g])]) for a, b in pairs]
            return [
                np.array([_pair_dot(x[row], y[row]) for x, y in rows])
                for row in range(len(self.model.groups[g].ranks))
            ]

        return self._reduce("dot_many", collective, body)

    def combine(
        self, ys: RankArrays, alpha: float, zs: RankArrays,
        roles: tuple[str, str] = ("p", "u"),
    ) -> None:
        wname, rname = _AXPY_ROLES[roles]

        def body(g: int) -> None:
            ys[g] += alpha * zs[g]

        self._launch(f"axpy_{roles[0]}", body, reads=(wname, rname), writes=(wname,))

    def precondition(self, cheby: Callable | None, rs: RankArrays) -> RankArrays:
        """Jacobi (``cheby`` None) issues one ``{tag}_precond`` kernel per
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
        ``{tag}_precond_matvec`` stencil kernels -- no halo exchanges and no
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
            arrays = [group.state[comp] for group in self.model.groups]
            rhs = [a.copy() for a in arrays]
            with span(f"step/{self.cost_tag}/pcg", component=comp, variant=variant):
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
