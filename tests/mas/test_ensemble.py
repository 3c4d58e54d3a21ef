"""Ensemble batching: batched runs must reproduce serial member runs.

The member axis is a pure layout transform -- every batched kernel is the
same arithmetic broadcast over B members, and every batched dot reduces
each member over the same elements in the same order as its serial solve.
So a B-member batched run must match B serial runs *bitwise*, across code
versions and PCG variants, while issuing the launch/message counts of ONE
serial run.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.codes import CodeVersion, runtime_config_for
from repro.mas.constants import PhysicsParams
from repro.mas.model import ENSEMBLE_VARY_PARAMS, MasModel, ModelConfig
from repro.mas.pcg import pcg_solve, pcg_solve_ca, pcg_solve_pipelined
from repro.mas.state import ALL_FIELDS, MhdState
from tests.mas.pcg_numpy import numpy_dot_batched, numpy_dot_many_batched

SHAPE = (6, 5, 8)
#: Small nominal (cost-model) grid so B-member batches fit the simulated
#: device; costs only scale timings, never physics.
NOMINAL = (32, 24, 48)
STEPS = 2

#: The paper's version ladder as exercised by the ensemble criterion:
#: baseline OpenACC, full-app acceleration, and both DC ports.
VERSIONS = (CodeVersion.A, CodeVersion.AD, CodeVersion.D2XU, CodeVersion.D2XAD)
VARIANTS = ("classic", "ca", "pipelined")


def _config(members: int, vary=(), **kw) -> ModelConfig:
    kw.setdefault("shape", SHAPE)
    kw.setdefault("nominal_shape", NOMINAL)
    kw.setdefault("num_ranks", 2)
    kw.setdefault("pcg_iters", 3)
    kw.setdefault("sts_stages", 3)
    return ModelConfig(ensemble_size=members, ensemble_vary=tuple(vary), **kw)


def _run(config: ModelConfig, version: CodeVersion) -> MasModel:
    model = MasModel(config, runtime_config_for(version))
    model.run(STEPS)
    return model


def _member_states(model: MasModel, b: int):
    if model.config.ensemble_size > 1:
        return [s.member_view(b) for s in model.states]
    return model.states


def _max_member_diff(batched: MasModel, serial: MasModel, b: int) -> float:
    worst = 0.0
    for sb, ss in zip(_member_states(batched, b), serial.states):
        for name in ALL_FIELDS:
            worst = max(worst, float(np.max(np.abs(sb.get(name) - ss.get(name)))))
    return worst


class TestBatchedEquivalence:
    @pytest.mark.parametrize("version", VERSIONS, ids=lambda v: v.name)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_members_match_serial_runs(self, version, variant):
        members = 3
        b0s = tuple(np.linspace(0.6, 1.8, members))
        batched = _run(
            _config(members, vary=[("b0", b0s)], pcg_variant=variant), version
        )
        assert np.asarray(batched.time).shape == (members,)
        for b, b0 in enumerate(b0s):
            serial = _run(_config(1, b0=float(b0), pcg_variant=variant), version)
            assert _max_member_diff(batched, serial, b) == 0.0, (version, variant, b)
            assert float(np.asarray(batched.time)[b]) == serial.time

    def test_eight_members_match_eight_serial_runs(self):
        members = 8
        b0s = tuple(np.linspace(0.5, 2.0, members))
        batched = _run(_config(members, vary=[("b0", b0s)]), CodeVersion.AD)
        for b, b0 in enumerate(b0s):
            serial = _run(_config(1, b0=float(b0)), CodeVersion.AD)
            assert _max_member_diff(batched, serial, b) <= 1e-12, b

    def test_varied_viscosity_matches_serial_params(self):
        nus = (0.0, 5.0e-3)
        batched = _run(_config(2, vary=[("viscosity", nus)]), CodeVersion.AD)
        for b, nu in enumerate(nus):
            serial = _run(
                _config(1, params=replace(PhysicsParams(), viscosity=nu)),
                CodeVersion.AD,
            )
            assert _max_member_diff(batched, serial, b) == 0.0, nu

    @pytest.mark.parametrize("precond", ("jacobi", "cheby"))
    @pytest.mark.parametrize("members", (2, 3))
    def test_fixed_dt_members_match_serial_runs(self, members, precond):
        """A fixed step and one viscosity give every member (and rank) the
        same scalar operator: the solve's diagonal has no member axis of
        its own, and must still divide each member by its own rank's.
        The two ranks split r, so their diagonals differ."""
        b0s = tuple(np.linspace(0.6, 1.8, members))
        kw = {"fixed_dt": 2.0e-3, "pcg_precond": precond, "shape": (8, 5, 4)}
        batched = _run(_config(members, vary=[("b0", b0s)], **kw), CodeVersion.AD)
        assert len(batched.groups) == 1 and len(batched.groups[0].ranks) == 2
        for b, b0 in enumerate(b0s):
            serial = _run(_config(1, b0=float(b0), **kw), CodeVersion.AD)
            assert _max_member_diff(batched, serial, b) == 0.0, (precond, b)

    def test_varied_resistivity_matches_serial_params(self):
        etas = (5.0e-5, 2.0e-4)
        batched = _run(_config(2, vary=[("resistivity", etas)]), CodeVersion.A)
        for b, eta in enumerate(etas):
            serial = _run(
                _config(1, params=replace(PhysicsParams(), resistivity=eta)),
                CodeVersion.A,
            )
            assert _max_member_diff(batched, serial, b) == 0.0, eta


class TestScalarPathUnchanged:
    def test_b1_is_bit_identical_to_default_config(self):
        a = _run(_config(1), CodeVersion.A)
        b = _run(
            ModelConfig(shape=SHAPE, nominal_shape=NOMINAL, num_ranks=2,
                        pcg_iters=3, sts_stages=3),
            CodeVersion.A,
        )
        assert isinstance(a.time, float) and a.time == b.time
        for sa, sb in zip(a.states, b.states):
            assert sa.rho.ndim == 3
            for name in ALL_FIELDS:
                assert np.array_equal(sa.get(name), sb.get(name)), name

    @pytest.mark.parametrize(
        "name, value",
        [("b0", 2.0), ("perturbation", 0.1), ("viscosity", 4.0e-3),
         ("resistivity", 1.0e-3)],
    )
    def test_one_varied_member_is_the_scalar_run_with_that_parameter(
        self, name, value
    ):
        """B=1 is a degenerate ensemble: the swept value reaches the run
        (initial condition, solve, EMF) as the scalar it is, and the report
        says what ran."""
        assert name in ENSEMBLE_VARY_PARAMS
        varied = _run(_config(1, vary=[(name, (value,))]), CodeVersion.A)
        if name in ("viscosity", "resistivity"):
            scalar_kw = {"params": replace(PhysicsParams(), **{name: value})}
        else:
            scalar_kw = {name: value}
        scalar = _run(_config(1, **scalar_kw), CodeVersion.A)
        default = _run(_config(1), CodeVersion.A)
        assert varied.states[0].rho.ndim == 3
        assert _max_member_diff(varied, scalar, 0) == 0.0
        assert _max_member_diff(varied, default, 0) > 0.0  # the value matters
        assert isinstance(varied.time, float) and varied.time == scalar.time
        assert varied.wall_time().hex() == scalar.wall_time().hex()
        assert varied.ensemble_report()[0][name] == value

    def test_one_member_keeps_the_scalar_edge(self, tmp_path):
        """Blocks carry a member axis at every B, but a one-member run's
        public values are scalar-shaped: 3-D rank arrays, float time and
        step, and telemetry without ensemble families or member keys. Two
        members have both."""
        import json

        from repro.obs.telemetry import session

        for members in (1, 2):
            out = tmp_path / f"b{members}"
            with session(out):
                model = _run(_config(members), CodeVersion.A)
            assert model.groups[0].fields["rho"].shape[1] == members
            metrics = json.loads((out / "metrics.json").read_text())
            records = [json.loads(line) for line in (out / "log.jsonl").read_text().splitlines()]
            steps = [r for r in records if r.get("event") == "step"]
            member_keys = {k for r in records for k in r
                           if k.startswith("member_") or k == "ensemble_members"}
            assert len(steps) == STEPS
            if members == 1:
                assert all(s.rho.ndim == 3 and s.br.ndim == 3 for s in model.states)
                assert isinstance(model.time, float)
                assert isinstance(model.compute_dt(), float)
                assert "ensemble_members_active" not in metrics
                assert member_keys == set()
            else:
                assert all(s.rho.shape[0] == 2 for s in model.states)
                assert np.asarray(model.time).shape == (2,)
                assert np.asarray(model.compute_dt()).shape == (2,)
                assert "ensemble_members_active" in metrics
                assert all(s["ensemble_members"] == 2 for s in steps)
                assert {"ensemble_members", "member_iterations"} <= member_keys

    def test_member_telemetry_only_when_batched(self, tmp_path):
        """A scalar run's PCG telemetry has the families and log keys it had
        before solves carried a member axis; a batch adds per-member ones."""
        import json

        from repro.obs.telemetry import session

        scalar_keys = {"event", "iterations", "residual_norm", "converged",
                       "breakdown", "variant", "allreduce_calls"}
        scalar_families = {
            "pcg_solves_total", "pcg_iterations_total", "pcg_residual_norm",
            "pcg_variant_solves_total", "pcg_allreduce_calls_total",
        }
        seen = {}
        for members in (1, 3):
            with session(tmp_path / f"b{members}") as tel:
                _run(_config(members), CodeVersion.A)
                families = {
                    name for name in json.loads(tel.metrics.to_json_text())
                    if name.startswith("pcg_")
                }
                records = [r for r in tel.logger.records if r["event"] == "pcg_solve"]
            assert records
            seen[members] = (families, {k for r in records for k in r})
        assert seen[1] == (scalar_families, scalar_keys)
        assert seen[3][0] - scalar_families == {
            "pcg_member_iterations_total", "pcg_member_converged_total",
            "pcg_member_breakdown_total",
        }
        assert seen[3][1] - scalar_keys == {
            "ensemble_members", "member_iterations", "member_residual_norm",
            "member_converged", "member_breakdown",
        }


class TestBatchAmortization:
    def test_launch_and_message_counts_independent_of_members(self):
        counts = {}
        for members in (1, 4):
            model = _run(_config(members), CodeVersion.A)
            counts[members] = (
                sum(rt.stats.launches for rt in model.ranks),
                model.halo.messages_sent
                if hasattr(model.halo, "messages_sent")
                else None,
            )
        assert counts[1][0] == counts[4][0]

    def test_halo_message_count_flat_via_metrics(self, tmp_path):
        import json

        from repro.obs.telemetry import session

        msgs = {}
        for members in (1, 4):
            with session(tmp_path / f"b{members}") as tel:
                _run(_config(members), CodeVersion.A)
                metrics = json.loads(tel.metrics.to_json_text())
            msgs[members] = sum(
                s["value"]
                for s in metrics["halo_messages_total"]["samples"]
                if "value" in s
            )
        assert msgs[1] == msgs[4] > 0


class TestRhoBreakdownMember:
    """Member b of a batch == the same system solved alone, whichever way
    and whenever it stops; the rest of the batch keeps iterating."""

    @staticmethod
    def _system(members: int, n: int = 12):
        rng = np.random.default_rng(11)
        diag = 1.0 + rng.random(n)
        rhs = np.broadcast_to(rng.standard_normal(n), (members, n)).copy()

        def apply_a(v):
            return [diag * vi for vi in v]

        return diag, rhs, apply_a

    def test_member_freezes_where_serial_would_return(self):
        diag, rhs, apply_a = self._system(2)

        def negated(rows):
            # The first application (solve set-up) is honest; afterwards the
            # given rows of z change sign, which drives that member's next
            # rho = (r, z) negative -- the rho-breakdown exit in every
            # variant (pipelined sees it one reduction later).
            calls = {"n": 0}

            def precondition(r):
                z = [r[0].copy()]
                if calls["n"] > 0:
                    z[0][rows] *= -1.0
                calls["n"] += 1
                return z

            return precondition

        # one name for all three variants: the suite's ids are cut at 100
        # characters, which a [variant] suffix here would exceed
        for variant in VARIANTS:
            x = [np.zeros_like(rhs)]
            result = _solve(variant, apply_a, rhs, x, negated(1), iterations=6)
            assert list(result.breakdown) == [False, True], variant
            assert list(result.iterations) == [6, 1], variant

            # member 1 froze exactly where its lone solve returns
            xs = [np.zeros_like(rhs[1])]
            lone = _solve(variant, apply_a, rhs[1], xs, negated(...),
                          iterations=6)
            assert lone.breakdown.tolist() == [True], variant
            assert lone.iterations[0] == result.iterations[1], variant
            assert np.array_equal(x[0][1], xs[0]), variant

            # member 0 is untouched by its neighbour's breakdown
            x0 = [np.zeros_like(rhs[0])]
            lone0 = _solve(variant, apply_a, rhs[0], x0,
                           lambda r: [r[0].copy()], iterations=6)
            assert not lone0.breakdown.any(), variant
            assert np.array_equal(x[0][0], x0[0]), variant

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_tolerance_exit_matches_lone_solve(self, variant):
        """Members reach ``tol`` at different iterations; each stops with
        the bits, count and flags of its lone solve."""
        diag, rhs, apply_a = self._system(3)
        rhs[0, 2:] = 0.0   # two eigencomponents: converges in two iterations
        rhs[1, 5:] = 0.0
        x = [np.zeros_like(rhs)]
        result = _solve(variant, apply_a, rhs, x, lambda r: [r[0].copy()],
                        iterations=40, tol=1e-10)
        assert result.converged.all() and not result.breakdown.any()
        assert len(set(result.iterations.tolist())) == 3
        for b in range(3):
            xs = [np.zeros_like(rhs[b])]
            lone = _solve(variant, apply_a, rhs[b], xs,
                          lambda r: [r[0].copy()], iterations=40, tol=1e-10)
            assert lone.converged.tolist() == [True]
            assert lone.iterations[0] == result.iterations[b], b
            assert lone.residual_norm[0] == result.residual_norm[b], b
            assert np.array_equal(x[0][b], xs[0]), b

    def test_breakdown_member_freezes_in_model_run(self):
        # viscosity 0 makes that member's implicit solve trivially converged
        # at iteration zero (rz == 0 with zero residual) -- the masking has
        # to freeze it without stalling its batch neighbours.
        model = _run(
            _config(2, vary=[("viscosity", (0.0, 5.0e-3))]), CodeVersion.AD
        )
        report = model.ensemble_report()
        assert report[0]["pcg_iterations"] < report[1]["pcg_iterations"]
        assert not report[0]["pcg_breakdown"]
        assert not report[1]["pcg_breakdown"]


class TestEnsembleReport:
    @pytest.mark.parametrize("fixed_dt", [None, 1.0e-3], ids=["cfl", "fixed_dt"])
    def test_each_row_reports_the_step_its_member_took(self, fixed_dt):
        """Under a CFL step or ``fixed_dt`` alike, every row carries the
        member's last step and time, and the time is per member."""
        from repro.obs.summary import member_table

        b0s = (0.6, 1.0, 1.8)
        model = _run(_config(3, vary=[("b0", b0s)], shape=(8, 6, 12), fixed_dt=fixed_dt),
                     CodeVersion.A)
        assert np.asarray(model.time).shape == (3,)
        report = model.ensemble_report()
        for b, row in enumerate(report):
            assert row["dt"] == float(model.last_dt[b]) > 0.0, row
            assert row["sim_time"] == float(model.time[b])
            if fixed_dt is not None:
                assert row["dt"] == fixed_dt and row["sim_time"] == STEPS * fixed_dt
        assert f"{report[0]['dt']:.5f}" in member_table(report)


def _combine(y, alpha, z, roles=None):
    for yi, zi in zip(y, z):
        yi += alpha * zi


def _numpy_dot_serial(a, b) -> float:
    # same reduction tree as numpy_dot_batched's per-member row sum, so the
    # lone solve reproduces the batch's alpha/beta bits
    return float(sum((x * y).sum() for x, y in zip(a, b)))


def _solve(variant, apply_a, rhs, x, precondition, **kw):
    """One solve of ``rhs`` (one system if 1-D, a batch if 2-D) into ``x``."""
    batch = rhs.ndim == 2
    common = dict(precondition=precondition, combine=_combine, **kw)
    if variant == "classic":
        dot = numpy_dot_batched if batch else _numpy_dot_serial
        return pcg_solve(apply_a, [rhs.copy()], x, dot=dot, **common)
    solver = pcg_solve_ca if variant == "ca" else pcg_solve_pipelined
    if batch:
        dot_many = numpy_dot_many_batched
    else:
        def dot_many(pairs):
            return tuple(_numpy_dot_serial(a, b) for a, b in pairs)
    return solver(apply_a, [rhs.copy()], x, dot_many=dot_many, **common)


class TestEnsembleState:
    def test_stack_and_member_view_round_trip(self):
        from repro.mas.grid import LocalGrid, SphericalGrid
        from repro.mas.groups import rank_groups
        from repro.mas.initial import initialize
        from repro.mpi.decomp import Decomposition3D

        grid = SphericalGrid.build(SHAPE)
        decomp = Decomposition3D(SHAPE, 1)
        lg = LocalGrid.from_global(grid, decomp, 0, ghost=1)
        params = PhysicsParams()
        members = [
            initialize(lg, params, b0=b0, perturbation=0.02)
            for b0 in (0.5, 1.0, 2.0)
        ]
        (group,), (ens,) = rank_groups([lg], lambda r: [m.copy() for m in members])
        assert isinstance(ens, MhdState) and ens.rho.shape[0] == 3
        assert group.fields["rho"].shape[:2] == (1, 3)
        for b, m in enumerate(members):
            view = ens.member_view(b)
            for name in ALL_FIELDS:
                assert np.array_equal(view.get(name), m.get(name)), name
