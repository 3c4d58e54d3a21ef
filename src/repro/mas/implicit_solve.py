"""One implicit velocity solve, ``(I - dt coeff Lap) v = v*`` per component.

Viscosity and the semi-implicit wave operator are the same SPD system with
a different coefficient (:mod:`repro.mas.semi_implicit`): both are one
:class:`ImplicitSolve`, whose methods are the callbacks :mod:`repro.mas.pcg`
takes, each issuing one kernel per rank through ``MasModel.launch``.
docs/PHYSICS.md S3b lists the kernel names and who owns the iterates.

An instance lives for one solve and nothing the model stores may refer to
it: it holds the model, so a stored one is a reference cycle that keeps a
dropped model's arrays alive until the cyclic collector happens to run.
"""

from __future__ import annotations

from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Iterator

import numpy as np

from repro.mas.boundary import apply_centered_boundary
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

    Per-member ``coeff``/``dt`` broadcast as (B,1,1,1) coefficient fields:
    each member sees exactly the scalar operator its serial run would,
    but every matvec/axpy kernel covers the whole batch.
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
        self.interiors = [g.interior() for g in model.local_grids]
        self.diags = [
            jacobi_diagonal(g, self.coeff, self.dt) for g in model.local_grids
        ]

    def _launch(self, kernel: str, body: Callable[[int], Any], **spec: Any) -> list:
        return self.model.launch(f"{self.tag}_{kernel}", body, tags=self.tags, **spec)

    def apply_a(self, comp: str, xs: RankArrays) -> RankArrays:
        """``A x`` behind one exchange of the iterate's ghosts; ``vt`` is
        odd across the poles."""
        m, anti = self.model, comp == "vt"

        def body(r: int) -> np.ndarray:
            apply_centered_boundary(xs[r], m.decomp, r, antisymmetric_theta=anti)
            return implicit_matvec(xs[r], m.local_grids[r], self.coeff, self.dt)

        return self._launch(f"matvec_{comp}", body, exchange=("pcg_p", xs),
                            reads=("pcg_p", "rho"), writes=("pcg_ap",))

    def local_matvec(self, xs: RankArrays) -> RankArrays:
        """Rank-local ``A x``, no exchange: the Chebyshev polynomial's."""
        grids = self.model.local_grids
        return self._launch(
            "precond_matvec",
            lambda r: implicit_matvec(xs[r], grids[r], self.coeff, self.dt),
            reads=("pcg_z", "pcg_diag"), writes=("pcg_ap",),
        )

    def dot(self, a: RankArrays, b: RankArrays) -> float | np.ndarray:
        def body(r: int) -> float | np.ndarray:
            i = self.interiors[r]
            return _pair_dot(a[r][i], b[r][i])

        total = self.model.runtime.allreduce(allreduce_sum, self._launch(
            "dot", body, entry="scalar_reduction", reads=("pcg_r", "pcg_z")))
        return total if isinstance(total, np.ndarray) else float(total)

    def dot_many(self, collective: Callable, pairs: DotPairs) -> Any:
        """Per-rank partial dots under one fused reduction, blocking
        (``allreduce_many``) or posted (``allreduce_many_begin``).

        Scalar runs contribute a (k,) vector; ensemble runs a (k, B)
        matrix -- still ONE collective either way. Each distinct operand's
        interior is copied contiguous once, for every pair that reads it.
        """
        def body(r: int) -> np.ndarray:
            i = self.interiors[r]
            arrays = {id(x[r]): x[r] for pair in pairs for x in pair}
            interior = {key: np.ascontiguousarray(a[i]) for key, a in arrays.items()}
            return np.array(
                [_pair_dot(interior[id(a[r])], interior[id(b[r])]) for a, b in pairs]
            )

        return self.model.runtime.allreduce(collective, self._launch(
            "dot_many", body, entry="scalar_reduction", reads=("pcg_r", "pcg_z")))

    def combine(
        self, ys: RankArrays, alpha: float, zs: RankArrays,
        roles: tuple[str, str] = ("p", "u"),
    ) -> None:
        wname, rname = _AXPY_ROLES[roles]

        def body(r: int) -> None:
            ys[r] += alpha * zs[r]

        self._launch(f"axpy_{roles[0]}", body, reads=(wname, rname), writes=(wname,))

    def precondition(self, cheby: Callable | None, rs: RankArrays) -> RankArrays:
        """Jacobi (``cheby`` None) issues one ``{tag}_precond`` kernel per
        rank per application; Chebyshev issues it after its polynomial."""
        diags = self.diags
        zs = None if cheby is None else cheby(rs)  # charges its matvec kernels
        return self._launch(
            "precond", lambda r: rs[r] / diags[r] if zs is None else zs[r],
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
            arrays = [s.get(comp) for s in self.model.states]
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
                    **reductions,
                )
