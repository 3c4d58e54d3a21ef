"""Top-level MAS-analog model: the physics, driving a runtime side.

One :class:`MasModel` owns the global grid and the per-rank states, and
*has* a :class:`~repro.mas.runtime_side.RuntimeSide`: one
:class:`~repro.runtime.dispatcher.RankRuntime` per simulated MPI rank and
what connects them. :meth:`step` advances the full thermodynamic MHD
system one step, issuing every array operation as a runtime kernel so that
the six code versions of Table I accrue their distinct simulated costs
while computing bit-identical physics.

Step sequence (mirroring MAS's explicit/implicit loop, paper SIII):

1. halo exchange + physical boundaries for all state fields
2. CFL timestep (local reduction kernel + MPI allreduce-min)
3. continuity and temperature advection (explicit upwind)
4. momentum predictor (pressure gradient, gravity, Lorentz force)
5. implicit viscosity solve per velocity component (PCG, Fig. 4's solver)
6. induction via constrained transport (exactly divergence-free)
7. thermal conduction (RKL2 super time-stepping)
8. radiative losses + coronal heating, then floors
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from typing import Any, Callable

import numpy as np

from repro.mas import operators as ops
from repro.mas.boundary import (
    BoundaryClasses, BoundaryProfiles, apply_boundaries, apply_centered_boundary,
)
from repro.mas.conduction import conduction_rhs
from repro.mas.constants import PhysicsParams
from repro.mas.grid import LocalGrid, SphericalGrid, stack_rows
from repro.mas.groups import rank_groups
from repro.mas.implicit_solve import ImplicitSolve
from repro.mas.initial import initialize
from repro.mas.pcg import PCG_VARIANTS, PRECONDITIONERS
# bench/tests/test_tracer.py, frozen with the benchmark, reads the three
# solvers and their retired ``_batched`` aliases off this module as well as
# off ``pcg``; the module that calls them is ``implicit_solve``.
from repro.mas.pcg import (  # noqa: F401
    pcg_solve,
    pcg_solve_batched,
    pcg_solve_ca,
    pcg_solve_ca_batched,
    pcg_solve_pipelined,
    pcg_solve_pipelined_batched,
)
from repro.mas.radiation import energy_source_rate, heating_profile
from repro.mas.runtime_side import RuntimeSide, StepTiming
from repro.mas.state import (
    ALL_FIELDS,
    FACE_FIELDS,
    STAGGER_AXES,
    VELOCITY_FIELDS,
    MhdState,
    member_field,
)
from repro.mas.sts import rkl2_advance
from repro.mpi.collectives import allreduce_min
from repro.runtime.config import RuntimeConfig
from repro.runtime.dispatcher import RankRuntime
from repro.runtime.kernel import LAUNCHES, KernelSpec, LoopCategory

#: Paper-scale problem: 36 million cells (SV-A).
NOMINAL_SHAPE_PAPER = (150, 300, 800)

#: Parameters a sweep may vary per ensemble member.  ``b0`` and
#: ``perturbation`` enter the initial condition; ``viscosity`` and
#: ``resistivity`` broadcast as (B,1,1,1) coefficient arrays through the
#: implicit solve and EMF assembly.  (Other :class:`PhysicsParams` fields
#: feed scalar control logic -- CFL constants, floors -- and are
#: deliberately not per-member.)
ENSEMBLE_VARY_PARAMS = ("b0", "perturbation", "viscosity", "resistivity")


@dataclass(frozen=True)
class ModelConfig:
    """Physics/problem configuration (identical across code versions)."""

    shape: tuple[int, int, int] = (16, 12, 24)
    nominal_shape: tuple[int, int, int] = NOMINAL_SHAPE_PAPER
    num_ranks: int = 1
    params: PhysicsParams = field(default_factory=PhysicsParams)
    #: Fixed PCG iterations per velocity component (paper-scale work; see
    #: repro.perf.calibration.PCG_ITERS_PAPER).
    pcg_iters: int = 10
    #: PCG solver variant: "classic" (reference, 3 allreduces/iter), "ca"
    #: (Chronopoulos-Gear, 1 fused allreduce/iter) or "pipelined"
    #: (Ghysels-Vanroose, the fused allreduce overlaps the matvec when the
    #: runtime has async queues).
    pcg_variant: str = "classic"
    #: Preconditioner: "jacobi" (diagonal) or "cheby" (Chebyshev polynomial
    #: over the Jacobi-scaled operator, no extra halo exchanges).
    pcg_precond: str = "jacobi"
    #: Early-exit tolerance on the relative residual (0 = fixed-iteration
    #: paper-scale semantics; variants may set > 0 to report own counts).
    pcg_tol: float = 0.0
    #: Chebyshev preconditioner polynomial degree (pcg_precond="cheby").
    cheby_degree: int = 3
    #: RKL2 stages of every conduction super step: a fixed, calibrated
    #: count (DESIGN.md section 8).
    sts_stages: int = 8
    #: Override the CFL timestep (tests / fixed-cost benchmarking).
    fixed_dt: float | None = None
    b0: float = 1.0
    #: Additional registered model arrays standing in for the full CORHEL
    #: physics complement's memory footprint (MAS holds ~100 3-D arrays;
    #: the paper sized 36M cells to nearly fill a 40GB A100). The default
    #: keeps 8 state + len(WORK_ARRAYS) + extra at the calibrated 98.
    extra_model_arrays: int = 67
    #: Overlap halo exchanges with interior compute: exchanges post on a
    #: detached communication timeline at ``exchange_begin`` while stencil
    #: kernels split into an interior pass (issued immediately) and a thin
    #: boundary-shell pass (issued at ``exchange_finish``). Takes effect
    #: only when the runtime has async queues
    #: (``RuntimeConfig.supports_halo_overlap``); physics is bit-identical
    #: either way.
    halo_overlap: bool = False
    #: Maximum factor dt may grow between steps (production codes ramp the
    #: step up slowly after transients; shrinking is never limited).
    dt_growth_limit: float = 1.25
    #: Initial non-axisymmetric density perturbation amplitude.
    perturbation: float = 0.02
    #: Ensemble batch size B: every state/work block carries a member axis
    #: of length B (1 for a scalar run), so one kernel advances all members
    #: at once -- launches and halo messages amortize ~B-fold.  A scalar
    #: run's public values (states, time, dt) stay 3-D arrays and floats.
    ensemble_size: int = 1
    #: Per-member parameter overrides for sweeps, as
    #: ``((name, (v_0, ..., v_{B-1})), ...)`` with names from
    #: :data:`ENSEMBLE_VARY_PARAMS`.
    ensemble_vary: tuple = ()

    def __post_init__(self) -> None:
        if any(n < 4 for n in self.shape):
            raise ValueError("each axis needs at least 4 cells")
        if self.num_ranks < 1:
            raise ValueError("need at least one rank")
        if self.pcg_iters < 1:
            raise ValueError("pcg_iters must be >= 1")
        if self.pcg_variant not in PCG_VARIANTS:
            raise ValueError(
                f"pcg_variant must be one of {PCG_VARIANTS}, got {self.pcg_variant!r}"
            )
        if self.pcg_precond not in PRECONDITIONERS:
            raise ValueError(
                f"pcg_precond must be one of {PRECONDITIONERS}, "
                f"got {self.pcg_precond!r}"
            )
        if not (np.isfinite(self.pcg_tol) and self.pcg_tol >= 0):
            raise ValueError(f"pcg_tol must be finite and non-negative, got {self.pcg_tol!r}")
        if self.cheby_degree < 1:
            raise ValueError("cheby_degree must be >= 1")
        if self.sts_stages < 2:
            raise ValueError("RKL2 needs at least 2 stages")
        if self.extra_model_arrays < 0:
            raise ValueError("extra_model_arrays cannot be negative")
        if not (np.isfinite(self.dt_growth_limit) and self.dt_growth_limit > 1.0):
            raise ValueError(
                f"dt_growth_limit must be finite and exceed 1, got {self.dt_growth_limit!r}"
            )
        if self.fixed_dt is not None and not (np.isfinite(self.fixed_dt) and self.fixed_dt > 0):
            raise ValueError(f"fixed_dt must be finite and positive, got {self.fixed_dt!r}")
        if self.ensemble_size < 1:
            raise ValueError("ensemble_size must be >= 1")
        names = [name for name, _ in self.ensemble_vary]
        for name, values in self.ensemble_vary:
            if names.count(name) > 1:
                raise ValueError(f"vary {name!r} more than once: one axis per parameter")
            if name not in ENSEMBLE_VARY_PARAMS:
                raise ValueError(
                    f"cannot vary {name!r} per member; choose from "
                    f"{ENSEMBLE_VARY_PARAMS}"
                )
            if len(values) != self.ensemble_size:
                raise ValueError(
                    f"vary {name!r} needs {self.ensemble_size} values, "
                    f"got {len(values)}"
                )
            for value in values:
                if not np.isfinite(value):
                    raise ValueError(f"vary {name!r}: {value!r} is not finite")
                if hasattr(self.params, name):
                    # the rule the scalar field is held to
                    replace(self.params, **{name: float(value)})


def _public(values: np.ndarray | None) -> float | np.ndarray | None:
    """A per-member ``(B,)`` value as the public API gives it: a scalar
    run's is a float."""
    if values is None or values.size > 1:
        return values
    return float(values[0])


def fast_speed(state, interior: tuple, params: PhysicsParams) -> np.ndarray:
    """Fast magnetosonic speed ``sqrt(vA^2 + cs^2)`` at the ``interior``
    cells of ``state``, which :meth:`MasModel.compute_dt`'s CFL step adds
    to the flow speed: an :class:`~repro.mas.state.MhdState` or a group's
    blocks by field name (either has ``.get(name)``)."""
    bcr, bct, bcp = ops.face_to_center(state.get("br"), state.get("bt"), state.get("bp"))
    rho = np.maximum(state.get("rho")[interior], params.rho_floor)
    va2 = (bcr[interior] ** 2 + bct[interior] ** 2 + bcp[interior] ** 2) / rho
    cs2 = params.sound_speed_sq(np.maximum(state.get("temp")[interior], params.temp_floor))
    return np.sqrt(va2 + cs2)


class MasModel:
    """A runnable MAS-analog instance under one code-version runtime."""

    def __init__(
        self,
        config: ModelConfig,
        runtime_config: RuntimeConfig,
        *,
        runtime: RuntimeSide | None = None,
        **hardware: Any,
    ) -> None:
        """``hardware`` is passed to :class:`RuntimeSide` (node, cluster,
        cost model, queue, transport and halo constants); ``runtime`` is a
        side built beforehand, or what records one
        (:class:`repro.mas.plan.PlanRecorder`)."""
        if runtime is None:
            runtime = RuntimeSide(config, runtime_config, **hardware)
        elif hardware or runtime.config != config or runtime.rt_config != runtime_config:
            raise ValueError("the runtime side was built for another configuration")
        self.config = config
        self.rt_config = runtime_config
        self.runtime = runtime
        self.ranks = runtime.ranks
        self.halo = runtime.halo
        self.decomp = runtime.decomp
        self.nominal_decomp = runtime.nominal_decomp
        #: Overlapped halo exchanges: requested by the model config AND
        #: supported by the runtime.
        self.halo_overlap = runtime.halo_overlap
        nb = config.ensemble_size
        #: Simulated physical time and the last step, per member (members
        #: advance under their own CFL steps); :attr:`time` and
        #: :attr:`last_dt` are their public forms.
        self._time = np.zeros(nb)
        self._last_dt: np.ndarray | None = None
        self.steps_taken = 0
        #: Swept parameters, (B,) values each, entering the model here and
        #: nowhere else (B=1 is a degenerate ensemble, not a different
        #: program).
        self._vary = {
            name: np.asarray(values, dtype=float) for name, values in config.ensemble_vary
        }
        #: Members frozen by a PCG rho-breakdown (sticky across steps).
        self._member_breakdown = np.zeros(config.ensemble_size, dtype=bool)
        #: Cumulative per-member PCG iteration / tol-convergence counters.
        self._member_pcg_iterations = np.zeros(config.ensemble_size, dtype=int)
        self._member_pcg_converged = np.zeros(config.ensemble_size, dtype=int)
        #: Boundary-shell passes deferred until their exchange finishes.
        self._deferred_shell: list[tuple] = []

        self.grid = SphericalGrid.build(config.shape)
        self.local_grids = [
            LocalGrid.from_global(self.grid, self.decomp, r, ghost=1)
            for r in range(config.num_ranks)
        ]

        # -- rank groups, states, boundary profiles ------------------------------
        b0s = self._per_member(self._vary.get("b0", config.b0))
        perts = self._per_member(self._vary.get("perturbation", config.perturbation))

        def rank_members(r: int) -> list[MhdState]:
            # Each member initializes exactly as its scalar run would, then
            # the members stack into the group's (G, B, ...) blocks.
            return [
                initialize(
                    self.local_grids[r],
                    config.params,
                    b0=float(b0s[b]),
                    perturbation=float(perts[b]),
                )
                for b in range(nb)
            ]

        #: Ranks of one ghosted shape, whose state fields are one block each
        #: (:mod:`repro.mas.groups`); a rank's state arrays are block rows.
        self.groups, self.states = rank_groups(self.local_grids, rank_members)
        #: Per rank, (its group's index, its row in the group's blocks).
        self._slots = [(-1, -1)] * config.num_ranks
        for g, group in enumerate(self.groups):
            for row, r in enumerate(group.ranks):
                self._slots[r] = (g, row)
        #: Per group, the arrays one step piece leaves for a later one.
        self._work: list[dict[str, Any]] = [{} for _ in self.groups]
        self.halo.set_groups([group.ranks for group in self.groups])
        runtime.register_arrays(self.states)
        #: Per group, the rows owning each global boundary face, and the
        #: inner-boundary values of its r-low rows.
        self.boundary = [BoundaryClasses.of(self.decomp, group.ranks) for group in self.groups]
        self.profiles = [
            BoundaryProfiles.capture(group.fields, classes)
            for group, classes in zip(self.groups, self.boundary)
        ]
        #: Per group, the heating profile stacked (G, 1, ...).
        self.heating = [
            stack_rows([heating_profile(self.local_grids[r], config.params)
                        for r in group.ranks])[:, np.newaxis]
            for group in self.groups
        ]

        with runtime.phase("setup/initial_exchange"):
            # Pre-register halo staging buffers for every field the step
            # loop exchanges (state + solver iterates): registration costs
            # land in setup, so step walls stay state-independent.
            self.halo.ensure_buffers((*ALL_FIELDS, "pcg_p", "sts_y"))
            self.halo.exchange_many(self._state_items())
            self._apply_boundaries()

    # ------------------------------------------------------ per-member values

    def _per_member(self, value: float | np.ndarray) -> np.ndarray:
        """``value`` for each member: a fresh ``(B,)`` float array."""
        return np.full(self.config.ensemble_size, value, dtype=float)

    @property
    def time(self) -> float | np.ndarray:
        """Simulated physical time: a float, or ``(B,)`` per member when
        B > 1."""
        return _public(self._time)

    @time.setter
    def time(self, value: float | np.ndarray) -> None:
        self._time = self._per_member(value)

    @property
    def last_dt(self) -> float | np.ndarray | None:
        """The last step taken (None before the first), as :attr:`time`."""
        return _public(self._last_dt)

    @last_dt.setter
    def last_dt(self, value: float | np.ndarray | None) -> None:
        self._last_dt = None if value is None else self._per_member(value)

    # ----------------------------------------------------------- communication

    def _state_items(self, names: tuple[str, ...] = ALL_FIELDS) -> list:
        """Batched-exchange items for the (selected) state fields: one
        block per rank group."""
        return [
            (name, [group.fields[name] for group in self.groups], STAGGER_AXES[name])
            for name in ALL_FIELDS
            if name in names
        ]

    def _exchange_state_begin(self, names: tuple[str, ...] = ALL_FIELDS):
        """Start the state exchange; overlapped when the model supports it.

        Returns the :class:`~repro.mpi.halo.PendingExchange` to pass to
        :meth:`_finish_exchange` (already complete when overlap is off).
        """
        return self.halo.exchange_begin_many(
            self._state_items(names), overlap=self.halo_overlap
        )

    # -- interior/boundary stencil splitting -----------------------------------

    def _stencil_specs(
        self, kernels: list[KernelSpec]
    ) -> list[tuple[KernelSpec, KernelSpec | None]]:
        """Per rank, its stencil kernel as the pass issued now and the
        boundary-shell pass deferred until :meth:`_finish_exchange` (None:
        nothing is deferred).

        Without overlap the pass issued now is the kernel. With overlap the
        kernel splits into an interior pass (carrying the full numpy body --
        payloads already moved at ``exchange_begin``, so numerics are
        unchanged) and a thin body-less shell pass; the two work fractions,
        which follow the rank's nominal shape, sum to the original,
        conserving traffic. Each pass is built once per (kernel, nominal
        shape), so ranks sharing a body-less kernel share its passes.
        """
        if not self.halo_overlap:
            return [(spec, None) for spec in kernels]
        split: dict[tuple, tuple[KernelSpec, KernelSpec | None]] = {}
        shells: dict[tuple, KernelSpec] = {}
        out = []
        for r, spec in enumerate(kernels):
            shape = self.nominal_decomp.local_shape(r)
            key = (id(spec), shape)  # ``kernels`` holds every spec keyed
            if key not in split:
                fi, fs = ops.overlap_split_fractions(shape)
                if fs <= 0.0:  # pragma: no cover - degenerate nominal extents
                    split[key] = (spec, None)
                else:
                    if shape not in shells:
                        shells[shape] = replace(
                            spec, name=f"{spec.name}_shell",
                            work_fraction=spec.work_fraction * fs, body=None,
                        )
                    interior = replace(
                        spec, name=f"{spec.name}_interior", work_fraction=spec.work_fraction * fi
                    )
                    split[key] = (interior, shells[shape])
            out.append(split[key])
        return out

    def _stencil_loop(self, rt: RankRuntime, kernel: tuple, *, entry=None):
        """Issue one rank's stencil kernel from :meth:`_stencil_specs`
        through ``entry`` (default ``rt.loop``), deferring its shell pass."""
        now, shell = kernel
        entry = entry or rt.loop
        result = entry(now)
        if shell is not None:
            self._deferred_shell.append((entry, shell))
        return result

    def _finish_exchange(self, pending) -> None:
        """Wait for an overlapped exchange, then issue all deferred
        boundary-shell passes (ghosts now costed)."""
        if pending is not None:
            self.halo.exchange_finish(pending)
        shells, self._deferred_shell = self._deferred_shell, []
        for entry, spec in shells:
            entry(spec)

    # -- one kernel per rank, one collective over ranks ------------------------------

    def launch(
        self, name: str, body: Callable[[int], Any] | None = None, *,
        entry: str = "loop", exchange: tuple[str, list[np.ndarray]] | None = None,
        **spec: Any,
    ) -> list:
        """Issue kernel ``name`` once per rank, in rank order, through the
        :class:`RankRuntime` entry point ``entry``, with the specs of
        :meth:`_rank_specs`: each rank group's ``body(g)`` runs once, in the
        kernel of the group's first rank.  Returns what each group's body
        returned (None without a body).  ``spec`` holds the other
        :class:`KernelSpec` fields, the same on every rank.
        ``exchange=(halo_name, blocks)`` exchanges the ghosts of one block
        per rank group around the kernels, which split into interior and
        shell passes when that exchange is overlapped.  (Loops issuing
        several kernels on a rank before the next rank's do not fit:
        emission order is part of the price. They issue their own, from
        :meth:`_rank_specs`.)"""
        if exchange is not None:
            pending = self.halo.exchange_begin_many([(*exchange, None)], overlap=self.halo_overlap)
        out: list = [None] * len(self.groups)
        kernels = self._rank_specs(name, body, LAUNCHES[entry], **spec)
        if exchange is not None:
            kernels = self._stencil_specs(kernels)
        for r, (rt, kernel) in enumerate(zip(self.ranks, kernels)):
            issue = getattr(rt, entry)
            result = (
                issue(kernel) if exchange is None
                else self._stencil_loop(rt, kernel, entry=issue)
            )
            g, row = self._slots[r]
            if row == 0:
                out[g] = result
        if exchange is not None:
            self._finish_exchange(pending)
        return out

    def _rank_specs(
        self, name: str, body: Callable[[int], Any] | None = None,
        category: LoopCategory = LoopCategory.PLAIN, **spec: Any,
    ) -> list[KernelSpec]:
        """Per rank, the :class:`KernelSpec` of kernel ``name`` it issues.

        Group ``g``'s numpy work, ``body(g)``, runs once, in the kernel of
        the group's first rank; every other rank issues one body-less spec
        that they all share.  Ranks issue a kernel in rank order, so a
        group's work is done when its later ranks issue theirs
        (docs/PHYSICS.md S3b).
        """
        if body is None:
            return [KernelSpec(name, category, **spec)] * len(self.ranks)
        firsts = [
            KernelSpec(name, category, body=partial(body, g), **spec)
            for g in range(len(self.groups))
        ]
        shared = (
            None if len(firsts) == len(self.ranks) else KernelSpec(name, category, **spec)
        )
        return [firsts[g] if row == 0 else shared for g, row in self._slots]

    def _interior(self, g: int) -> tuple:
        """The interior index of group ``g``'s blocks (one for all its ranks)."""
        return self.local_grids[self.groups[g].ranks[0]].interior()

    def rank_rows(self, per_group: list) -> list:
        """Per-group stacks (or lists) as their rows in rank order."""
        return [per_group[g][row] for g, row in self._slots]

    def _apply_boundaries(self) -> None:
        def body(g: int) -> None:
            apply_boundaries(self.groups[g].fields, self.boundary[g], self.profiles[g])

        # Ranks of one nominal size share their specs.
        specs: dict[float, list[KernelSpec]] = {}
        for r, rt in enumerate(self.ranks):
            # apply_boundaries fills ghosts of ALL state fields, including
            # the face-centered B components (the shadow checker flags the
            # narrower declaration as footprint drift). The byte count stays
            # pinned to the calibrated 13-array footprint: ghost fills of B
            # reuse cache lines the velocity reflection already streamed.
            state_bytes = sum(rt.env.nominal_bytes(n) for n in ALL_FIELDS)
            if state_bytes not in specs:
                specs[state_bytes] = self._rank_specs(
                    "boundary_fill", body,
                    reads=ALL_FIELDS,
                    writes=ALL_FIELDS,
                    work_fraction=min(1.0, 4.0 / self.config.nominal_shape[0]),
                    bytes_override=state_bytes * 13.0 / 8.0,
                )
            rt.loop(specs[state_bytes][r])

    # ------------------------------------------------------------------- step

    def compute_dt(self) -> float | np.ndarray:
        """Each member's next step, recorded as the last one taken:
        ``fixed_dt``, or the CFL step (local fast-speed reduction + global
        min, elementwise over members, so a stiff member never throttles
        the others' physics). A float when B = 1, like :attr:`time`.

        The CFL step is additionally rate-limited: it may grow by at most
        ``dt_growth_limit`` per step (it shrinks freely).
        """
        if self.config.fixed_dt is not None:
            self._last_dt = self._per_member(self.config.fixed_dt)
            return self.last_dt
        p = self.config.params

        def body(g: int) -> np.ndarray:
            f, i = self.groups[g].fields, self._interior(g)
            vmag = np.sqrt(f["vr"][i] ** 2 + f["vt"][i] ** 2 + f["vp"][i] ** 2)
            speed = vmag + fast_speed(f, i, p)
            extent = np.array(
                [[self.local_grids[r].min_cell_extent] for r in self.groups[g].ranks]
            )
            return p.cfl * extent / speed.max(axis=(-3, -2, -1))

        # MAS's remaining `kernels` regions wrap Fortran intrinsics like
        # MINVAL (SIV-B); the CFL minimum is exactly that construct, so
        # it goes through kernels_region (Code 5 expands it into an
        # explicit DC reduction loop).
        dt = self.runtime.allreduce(allreduce_min, self.rank_rows(self.launch(
            "cfl_minval", body, entry="kernels_region", reads=ALL_FIELDS,
        )))
        if self._last_dt is not None:
            dt = np.minimum(dt, self._last_dt * self.config.dt_growth_limit)
        self._last_dt = dt
        return self.last_dt

    def step(self) -> StepTiming:
        """Advance the full system one step; returns timing deltas."""
        run = self.runtime
        span = run.span
        run.begin_step()
        with run.phase("step", index=self.steps_taken):
            with span("step/exchange"):
                run.wrapper_inits()
                # Overlapped mode: packs/messages post on a detached
                # communication timeline here; the boundary fill, CFL
                # reduction and interior hydro/momentum passes below hide
                # it, and _momentum_predictor collects the remainder.
                pending = self._exchange_state_begin()
                self._apply_boundaries()
            with span("step/cfl"):
                self.compute_dt()
                dt = self._last_dt
            with span("step/hydro"):
                self._hydro_advance(dt)
                self._shell_diagnostics()
            with span("step/momentum"):
                self._momentum_predictor(dt, pending)
            with span("step/viscosity"):
                self._viscosity_solve(dt)
            with span("step/exchange"):
                pending_v = self._exchange_state_begin(VELOCITY_FIELDS)
                self._apply_boundaries()
            with span("step/induction"):
                self._induction(dt, pending_v)
            with span("step/conduction"):
                self._conduction(dt)
            with span("step/sources"):
                self._energy_sources(dt)
                self._floors()

        self._time = self._time + dt
        self.steps_taken += 1
        nb = self.config.ensemble_size
        return run.end_step(
            self.steps_taken - 1,
            float(np.min(dt)),
            float(np.min(self._time)),
            nb - int(self._member_breakdown.sum()) if nb > 1 else None,
        )

    def run(self, n_steps: int) -> list[StepTiming]:
        """Advance ``n_steps`` steps, returning per-step timings."""
        if n_steps < 1:
            raise ValueError("need at least one step")
        return [self.step() for _ in range(n_steps)]

    # ------------------------------------------------------------ step pieces

    def _hydro_advance(self, dt: np.ndarray) -> None:
        p = self.config.params
        dt = member_field(dt)
        groups = self.groups
        work: list[dict[str, Any]] = [{} for _ in groups]

        def pres_body(g: int) -> None:
            f = groups[g].fields
            work[g]["pres"] = p.pressure(f["rho"], f["temp"])

        def divv_body(g: int) -> None:
            f = groups[g].fields
            work[g]["divv"] = ops.div_center(f["vr"], f["vt"], f["vp"], groups[g].stencil)

        def continuity_body(g: int) -> None:
            f, stencil, i = groups[g].fields, groups[g].stencil, self._interior(g)
            # face velocities and donor masks of all five advections
            work[g]["upwind"] = ops.upwind_faces(f["vr"], f["vt"], f["vp"], stencil)
            div_rho_v = ops.advect_upwind(f["rho"], work[g]["upwind"], stencil)
            f["rho"][i] -= dt * div_rho_v[i]
            np.maximum(f["rho"][i], p.rho_floor, out=f["rho"][i])

        def temp_adv_body(g: int) -> None:
            f, i, w = groups[g].fields, self._interior(g), work[g]
            div_tv = ops.advect_upwind(f["temp"], w["upwind"], groups[g].stencil)
            # v.grad T = div(T v) - T div v; compression adds (gamma-1) T div v
            f["temp"][i] -= dt * (
                div_tv[i] - f["temp"][i] * w["divv"][i]
                + (p.gamma - 1.0) * f["temp"][i] * w["divv"][i]
            )
            np.maximum(f["temp"][i], p.temp_floor, out=f["temp"][i])

        pres, divv, continuity, temp_adv = (
            self._rank_specs("eos_pressure", pres_body, reads=("rho", "temp"),
                             writes=("wrk_pres",)),
            self._stencil_specs(self._rank_specs(
                "velocity_divergence", divv_body, reads=("vr", "vt", "vp"),
                writes=("wrk_divv",))),
            self._stencil_specs(self._rank_specs(
                "continuity", continuity_body, reads=("rho", "vr", "vt", "vp"),
                writes=("rho",))),
            self._stencil_specs(self._rank_specs(
                "temp_advection", temp_adv_body,
                reads=("temp", "vr", "vt", "vp", "wrk_divv"), writes=("temp",))),
        )
        for r, rt in enumerate(self.ranks):
            with rt.region():
                rt.loop(pres[r])
                self._stencil_loop(rt, divv[r])
            self._stencil_loop(rt, continuity[r])
            self._stencil_loop(rt, temp_adv[r])
            # pressure/divv reused by the momentum predictor this step.  The
            # previous step's arrays are released here, one group at a time
            # and after this step's are allocated; releasing them all up
            # front changes which temporaries the allocator serves from
            # fresh pages (CHANGES.md, PR 19).
            g, row = self._slots[r]
            if row == 0:
                self._work[g] = work[g]

    def _shell_diagnostics(self) -> None:
        """Per-shell mass-flux profile: MAS's array-reduction pattern.

        flux(i) = sum_{j,k} rho*vr*A_r accumulates many (j,k) contributions
        into each radial bin -- Listing 3's atomic array reduction, which
        Code 4 keeps as atomics inside DC (Listing 4) and Codes 5/6 flip
        into an outer DC with an inner serialized reduce (Listing 5).
        """
        def body(g: int) -> np.ndarray:
            group = self.groups[g]
            f, i = group.fields, self._interior(g)
            rhovr = f["rho"][i] * f["vr"][i]
            area = group.stencil.face_areas[0][..., 1:-1, 1:-1, 1:-1][..., : rhovr.shape[-3], :, :]
            return (rhovr * area).sum(axis=(-2, -1))

        self._last_flux_profile = self.rank_rows(self.launch(
            "shell_mass_flux", body, entry="array_reduction",
            reads=("rho", "vr"), writes=("diag_flux",),
        ))

    def _momentum_predictor(self, dt: np.ndarray, pending=None) -> None:
        p = self.config.params
        dt = member_field(dt)
        groups, work = self.groups, self._work

        def lorentz_body(g: int) -> None:
            f, w = groups[g].fields, work[g]
            # J on edges, for the EMF of this step too (B is not written in
            # between)
            w["current"] = ops.current_edges(f["br"], f["bt"], f["bp"], groups[g].stencil)
            w["lor"] = ops.lorentz_force(f["br"], f["bt"], f["bp"], w["current"])

        def adv_body(g: int) -> None:
            f, w = groups[g].fields, work[g]
            # (v.grad) v = div(v v) - v div v; nothing has written v since
            # velocity_divergence made div v
            upwind = w.pop("upwind")
            divv = w.pop("divv")
            adv = []
            for v in (f["vr"], f["vt"], f["vp"]):
                adv.append(ops.advect_upwind(v, upwind, groups[g].stencil))
                adv[-1] -= v * divv
            w["adv"] = tuple(adv)

        lorentz = self._stencil_specs(self._rank_specs(
            "lorentz_force", lorentz_body, reads=("br", "bt", "bp"),
            writes=("wrk_lor_r", "wrk_lor_t", "wrk_lor_p")))
        advection = self._stencil_specs(self._rank_specs(
            "momentum_advection", adv_body, reads=("vr", "vt", "vp"),
            writes=("wrk_adv_r", "wrk_adv_t", "wrk_adv_p")))
        for r, rt in enumerate(self.ranks):
            self._stencil_loop(rt, lorentz[r])
            self._stencil_loop(rt, advection[r])

        # The start-of-step state exchange must complete before the
        # velocity updates below; every interior pass so far hid it.
        self._finish_exchange(pending)

        def update_vr(g: int) -> None:
            f, w, i = groups[g].fields, work[g], self._interior(g)
            # the pressure gradient, floored density and gravity all three
            # updates read
            rc = groups[g].stencil.column("rc")[..., i[-3], :, :]
            w["grad"] = gp, rho_i, grav_i = (
                ops.grad_center(w["pres"], groups[g].stencil),
                np.maximum(f["rho"][i], p.rho_floor),
                p.gravity / rc**2,
            )
            adv, lor = w["adv"], w["lor"]
            f["vr"][i] += dt * (-adv[0][i] - gp[0][i] / rho_i + lor[0][i] / rho_i - grav_i)

        def update_vt(g: int) -> None:
            f, w, i = groups[g].fields, work[g], self._interior(g)
            gp, rho_i, _ = w["grad"]
            adv, lor = w["adv"], w["lor"]
            f["vt"][i] += dt * (-adv[1][i] - gp[1][i] / rho_i + lor[1][i] / rho_i)

        def update_vp(g: int) -> None:
            f, w, i = groups[g].fields, work[g], self._interior(g)
            gp, rho_i, _ = w.pop("grad")
            adv, lor = w["adv"], w["lor"]
            f["vp"][i] += dt * (-adv[2][i] - gp[2][i] / rho_i + lor[2][i] / rho_i)

        reads = ("wrk_pres", "rho", "wrk_lor_r", "wrk_lor_t", "wrk_lor_p",
                 "wrk_adv_r", "wrk_adv_t", "wrk_adv_p")
        updates = [
            self._rank_specs(f"update_{comp}", upd, reads=reads, writes=(comp,))
            for comp, upd in zip(VELOCITY_FIELDS, (update_vr, update_vt, update_vp))
        ]
        for r, rt in enumerate(self.ranks):
            with rt.region():
                for upd in updates:
                    rt.loop(upd[r])

    # -- implicit viscosity solve ----------------------------------------------------

    def _viscosity_solve(self, dt: np.ndarray) -> None:
        """(I - dt nu Lap) v = v* per component via the selected PCG
        variant, folded into the per-member ledger; the
        :class:`ImplicitSolve` is not kept (see
        :mod:`repro.mas.implicit_solve`)."""
        nu = self._per_member(self._vary.get("viscosity", self.config.params.viscosity))
        if np.all(nu == 0.0):
            return
        for result in ImplicitSolve(self, nu, dt).run():
            self._member_breakdown |= result.breakdown
            self._member_pcg_iterations += result.iterations
            self._member_pcg_converged += result.converged

    # -- induction -------------------------------------------------------------------

    def _induction(self, dt: np.ndarray, pending=None) -> None:
        dt = member_field(dt)
        eta = member_field(
            self._per_member(self._vary.get("resistivity", self.config.params.resistivity))
        )
        groups, work = self.groups, self._work

        def emf_body(g: int) -> None:
            f, w = groups[g].fields, work[g]
            w["emf"] = ops.emf_edges(
                f["vr"], f["vt"], f["vp"], f["br"], f["bt"], f["bp"],
                w.pop("current"), resistivity=eta,
            )

        # The EMF assembly calls pure interpolation/staggering routines
        # (MAS's s2c/interp family): an OpenACC `routine` loop that
        # Codes 5/6 handle by inlining (-Minline).
        emf = self._stencil_specs(self._rank_specs(
            "emf_edges", emf_body, LoopCategory.ROUTINE_CALLER,
            reads=("vr", "vt", "vp", "br", "bt", "bp"),
            writes=("emf_r", "emf_t", "emf_p"),
        ))
        for r, rt in enumerate(self.ranks):
            self._stencil_loop(rt, emf[r], entry=rt.routine_loop)

        # The mid-step velocity exchange completes before the CT updates.
        self._finish_exchange(pending)

        def ct_update(name: str, axis: int) -> list[KernelSpec]:
            def body(g: int) -> None:
                db = ops.ct_face_component(*work[g]["emf"], groups[g].stencil, axis)
                fi = self.local_grids[groups[g].ranks[0]].face_interior(axis)
                groups[g].fields[name][fi] += dt * db[fi]
            return self._rank_specs(f"ct_update_{name}", body,
                                    reads=("emf_r", "emf_t", "emf_p"), writes=(name,))

        updates = [ct_update(name, axis) for name, axis in FACE_FIELDS]
        for r, rt in enumerate(self.ranks):
            with rt.region():
                for upd in updates:
                    rt.loop(upd[r])
            # bodies run at launch: the group's last CT update has read the
            # EMFs
            g, row = self._slots[r]
            if row == 0:
                del work[g]["emf"]

    # -- conduction (STS) ---------------------------------------------------------------

    def _conduction(self, dt: np.ndarray) -> None:
        p = self.config.params
        if p.kappa0 == 0.0:
            return
        dt = member_field(dt)

        tags = frozenset({"conduction"})
        groups = self.groups

        def apply_l(us):
            def body(g: int) -> np.ndarray:
                apply_centered_boundary(us[g], self.boundary[g])
                return conduction_rhs(us[g], groups[g].fields["rho"], groups[g].stencil, p)

            return self.launch(
                "conduction_rhs", body, exchange=("sts_y", us),
                reads=("sts_y", "rho"), writes=("sts_l",), tags=tags,
            )

        def on_stage(j: int) -> None:
            # stage-combination axpy kernels
            self.launch("sts_combine", reads=("sts_y", "sts_l"),
                        writes=("sts_y",), tags=tags)

        temps = [group.fields["temp"] for group in groups]
        advanced = rkl2_advance(apply_l, temps, dt, self.config.sts_stages, on_stage=on_stage)
        for temp, new in zip(temps, advanced):
            np.maximum(new, p.temp_floor, out=new)
            temp[:] = new

    # -- sources & floors -------------------------------------------------------------

    def _energy_sources(self, dt: np.ndarray) -> None:
        p = self.config.params
        dt = member_field(dt)

        def body(g: int) -> None:
            f = self.groups[g].fields
            rate = energy_source_rate(f["rho"], f["temp"], self.heating[g], p)
            f["temp"] += dt * rate
            np.maximum(f["temp"], p.temp_floor, out=f["temp"])

        self.launch("radiation_heating", body, reads=("rho", "temp", "heat"),
                    writes=("temp",))

    def _floors(self) -> None:
        p = self.config.params

        def body(g: int) -> None:
            block = self.groups[g].fields
            np.maximum(block["rho"], p.rho_floor, out=block["rho"])
            np.maximum(block["temp"], p.temp_floor, out=block["temp"])

        self.launch("apply_floors", body, reads=("rho", "temp"),
                    writes=("rho", "temp"))

    # ------------------------------------------------------------------ reporting

    def wall_time(self) -> float:
        """Simulated wall-clock so far (max over ranks)."""
        return self.runtime.wall_time()

    def ensemble_report(self) -> list[dict]:
        """One row per ensemble member: swept parameter values, simulated
        time reached, the last step taken, and cumulative PCG convergence
        counters.  Works for scalar runs too (a single row)."""
        rows = []
        for b in range(self.config.ensemble_size):
            row: dict = {"member": b}
            for name, values in self._vary.items():
                row[name] = float(values[b])
            row.update(
                sim_time=float(self._time[b]),
                dt=None if self._last_dt is None else float(self._last_dt[b]),
                pcg_iterations=int(self._member_pcg_iterations[b]),
                pcg_converged=int(self._member_pcg_converged[b]),
                pcg_breakdown=bool(self._member_breakdown[b]),
            )
            rows.append(row)
        return rows

    def diagnostics(self) -> dict[str, float]:
        """Physics diagnostics aggregated over ranks (interior cells)."""
        total_mass = 0.0
        max_divb = 0.0
        max_v = 0.0
        for r in range(len(self.ranks)):
            grid, state = self.local_grids[r], self.states[r]
            i = grid.interior()
            total_mass += float((state.rho[i] * grid.volume[i]).sum())
            divb = ops.div_face(state.br, state.bt, state.bp, grid)
            max_divb = max(max_divb, float(np.abs(divb[i]).max()))
            max_v = max(max_v, float(np.abs(state.vr[i]).max()))
        return {"mass": total_mass, "max_divb": max_divb, "max_vr": max_v}
