"""Full-model integration: physics invariants and cross-version identity."""

import numpy as np
import pytest

from repro.codes import CodeVersion, GPU_VERSIONS, runtime_config_for
from repro.mas.model import MasModel, ModelConfig, fast_speed
from repro.mas.runtime_side import WORK_ARRAYS
from tests.mas.validate import states_equivalent


SMALL = dict(shape=(10, 8, 16), pcg_iters=3, sts_stages=3, extra_model_arrays=3)


def make(version=CodeVersion.A, num_ranks=1, **kw):
    args = {**SMALL, **kw, "num_ranks": num_ranks}
    return MasModel(ModelConfig(**args), runtime_config_for(version))


class TestConfigValidation:
    def test_shape_minimum(self):
        with pytest.raises(ValueError):
            ModelConfig(shape=(2, 8, 8))

    def test_pcg_iters_positive(self):
        with pytest.raises(ValueError):
            ModelConfig(pcg_iters=0)

    def test_sts_stage_minimum(self):
        with pytest.raises(ValueError):
            ModelConfig(sts_stages=1)

    @pytest.mark.parametrize(
        "name, values, message",
        [
            ("viscosity", (-1.0, 1.0), "viscosity cannot be negative"),
            ("resistivity", (1e-3, -1e-3), "resistivity cannot be negative"),
            ("viscosity", (float("nan"), 1.0), "not finite"),
            ("b0", (1.0, float("inf")), "not finite"),
        ],
    )
    def test_member_values_are_held_to_the_scalar_rule(self, name, values, message):
        """A per-member value is checked where it is read, like the scalar
        ``PhysicsParams`` field it replaces, so a bad sweep fails at build
        time and not inside ``viscous_rhs`` mid-step."""
        with pytest.raises(ValueError, match=message):
            ModelConfig(ensemble_vary=((name, values),), ensemble_size=2)
        ModelConfig(ensemble_vary=(("b0", (-1.0, 1.0)),), ensemble_size=2)  # sign is free


    @pytest.mark.parametrize("fixed_dt", [float("nan"), float("inf"), -1e-3, 0.0])
    def test_fixed_dt_must_be_finite_and_positive(self, fixed_dt):
        """A NaN step would run and leave the mass NaN, an infinite one the
        time, and a negative one would fail in the viscosity solve after
        hydro and momentum had written the state: refused at build time,
        naming the field."""
        with pytest.raises(ValueError, match="fixed_dt"):
            ModelConfig(fixed_dt=fixed_dt)
        ModelConfig(fixed_dt=1e-3)

    @pytest.mark.parametrize("field, value", [
        ("pcg_tol", float("inf")), ("pcg_tol", float("nan")), ("pcg_tol", -1e-8),
        ("dt_growth_limit", float("nan")), ("dt_growth_limit", float("inf")),
        ("dt_growth_limit", 1.0),
    ])
    def test_tolerances_must_be_finite_and_in_range(self, field, value):
        """An infinite ``pcg_tol`` would skip every PCG iteration, a NaN one
        would run as 0 but pass as adaptive, and a NaN ``dt_growth_limit``
        would make the CFL step NaN: refused at build time, naming the
        field."""
        with pytest.raises(ValueError, match=field):
            ModelConfig(**{field: value})
        ModelConfig(pcg_tol=0.0, dt_growth_limit=1.25)


class TestPhysicsInvariants:
    @pytest.fixture(scope="class")
    def run(self):
        m = make()
        timings = m.run(4)
        return m, timings

    def test_divb_machine_zero(self, run):
        m, _ = run
        assert m.diagnostics()["max_divb"] < 1e-11

    def test_state_finite(self, run):
        m, _ = run
        m.states[0].assert_finite()

    def test_density_positive(self, run):
        m, _ = run
        i = m.local_grids[0].interior()
        assert np.all(m.states[0].rho[i] > 0)

    def test_temperature_positive(self, run):
        m, _ = run
        i = m.local_grids[0].interior()
        assert np.all(m.states[0].temp[i] > 0)

    def test_dt_positive_and_stable(self, run):
        _, timings = run
        assert all(t.dt > 0 for t in timings)
        # quasi-steady problem: dt should not collapse
        assert timings[-1].dt > 0.3 * timings[0].dt

    def test_time_advances(self, run):
        m, timings = run
        assert m.time == pytest.approx(sum(t.dt for t in timings))
        assert m.steps_taken == len(timings)

    def test_wind_accelerates(self, run):
        """The coronal relaxation should drive an outflow."""
        m, _ = run
        assert m.diagnostics()["max_vr"] > 0

    def test_mass_nearly_conserved(self):
        m = make()
        m0 = m.diagnostics()["mass"]
        m.run(4)
        m1 = m.diagnostics()["mass"]
        # open boundaries leak a little; must stay within a few percent
        assert abs(m1 - m0) / m0 < 0.05


class TestTimings:
    def test_step_timing_fields(self):
        m = make()
        t = m.step()
        assert t.wall > 0
        assert t.mpi >= 0
        assert t.compute > 0
        assert t.launches > 0

    def test_mpi_time_nonzero_even_single_rank(self):
        """Periodic phi wrap: Fig. 3 shows MPI time at 1 GPU."""
        m = make()
        t = m.step()
        assert t.mpi > 0

    def test_run_validates_steps(self):
        with pytest.raises(ValueError):
            make().run(0)

    def test_fixed_dt_override(self):
        m = make(fixed_dt=1e-3)
        t = m.step()
        assert t.dt == 1e-3


class TestCflStep:
    def test_fast_speed_exceeds_the_sound_speed(self):
        """The Alfven speed adds to the sound speed."""
        m = make()
        c = fast_speed(m.states[0], m.local_grids[0].interior(), m.config.params)
        assert c.min() > np.sqrt(m.config.params.gamma)

    def test_the_step_is_the_cfl_limit_of_flow_plus_fast_speed(self):
        m = make()
        s, grid, p = m.states[0], m.local_grids[0], m.config.params
        i = grid.interior()
        speed = np.sqrt(s.vr[i] ** 2 + s.vt[i] ** 2 + s.vp[i] ** 2) + fast_speed(s, i, p)
        assert m.compute_dt() == p.cfl * grid.min_cell_extent / speed.max()


class TestCrossVersionIdentity:
    def test_all_versions_bit_identical_physics(self):
        """The paper validated solutions across versions to solver
        tolerance; our runtimes execute identical numerics, so the match
        is exact."""
        ref = None
        for v in GPU_VERSIONS:
            m = make(v)
            m.run(3)
            if ref is None:
                ref = m.states[0]
            else:
                for name in ("rho", "temp", "vr", "vt", "vp", "br", "bt", "bp"):
                    assert np.array_equal(
                        ref.get(name), m.states[0].get(name)
                    ), (v, name)

    def test_cpu_version_matches_gpu(self):
        a = make(CodeVersion.A)
        c = make(CodeVersion.CPU)
        a.run(2)
        c.run(2)
        assert np.array_equal(a.states[0].rho, c.states[0].rho)


class TestMultiRank:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_single_rank(self, n):
        m1 = make(num_ranks=1)
        mn = make(num_ranks=n)
        m1.run(3)
        mn.run(3)
        diffs = states_equivalent(
            m1.states, m1.decomp, mn.states, mn.decomp, tol=1e-9
        )
        assert max(diffs.values()) < 1e-9

    def test_multi_rank_divb(self):
        m = make(num_ranks=4)
        m.run(3)
        assert m.diagnostics()["max_divb"] < 1e-11

    def test_rank_clocks_stay_close(self):
        """Clocks drift by per-rank jitter between exchanges, but the
        bulk-synchronous exchanges keep them within a small fraction of a
        step of each other."""
        m = make(num_ranks=4)
        t = m.step()
        times = [rt.clock.now for rt in m.ranks]
        assert max(times) - min(times) < 0.1 * t.wall


class TestVersionCostOrdering:
    """The paper's performance ordering must hold per step."""

    def _wall(self, version, n=1, **kw):
        m = make(version, num_ranks=n, **kw)
        m.run(1)
        ts = m.run(2)
        return sum(t.wall for t in ts) / len(ts)

    def test_um_codes_slower(self):
        assert self._wall(CodeVersion.ADU) > 1.1 * self._wall(CodeVersion.A)

    def test_code2_close_to_code1(self):
        a = self._wall(CodeVersion.A)
        ad = self._wall(CodeVersion.AD)
        assert a <= ad < 1.2 * a

    def test_code6_slightly_slower_than_code2(self):
        ad = self._wall(CodeVersion.AD)
        d2xad = self._wall(CodeVersion.D2XAD)
        assert ad < d2xad < 1.25 * ad

    def test_slowdown_within_paper_band(self):
        """Abstract: DC-only is 1.25x-3x slower than OpenACC."""
        ratio = self._wall(CodeVersion.D2XU) / self._wall(CodeVersion.A)
        assert 1.1 < ratio < 3.5


class TestWrapperInitKernels:
    def test_code6_issues_extra_kernels(self):
        m2 = make(CodeVersion.AD)
        m6 = make(CodeVersion.D2XAD)
        t2 = m2.step()
        t6 = m6.step()
        assert t6.launches >= t2.launches + len(WORK_ARRAYS)


def _arrays(values):
    for value in values:
        if isinstance(value, tuple):
            yield from _arrays(value)
        else:
            yield value


class TestDerivedOnceAStep:
    """docs/PHYSICS.md S3c: a value the step derives once for several
    kernels (div v, face velocities and donor masks, J on edges, the
    pressure gradient, the EMFs) is popped from its rank group's work after
    its last consumer; what stays is the centred arrays the next step
    replaces."""

    @pytest.mark.parametrize("kw", [
        {},
        dict(num_ranks=2, halo_overlap=True),
        dict(ensemble_size=2, ensemble_vary=(("resistivity", (0.0, 1e-3)),)),
    ])
    def test_no_face_current_or_emf_array_outlives_the_step(self, kw):
        m = make(**kw)
        m.run(2)
        assert len(m._work) == len(m.groups)
        for group, work in zip(m.groups, m._work):
            assert set(work) == {"pres", "lor", "adv"}
            assert all(a.shape == group.fields["rho"].shape for a in _arrays(work.values()))


class TestStepWorkRunsInKernelBodies:
    """The pressure gradient, floored density and gravity the velocity
    updates read are computed in ``update_vr``'s group body, so a host
    profiler books them to the kernel bodies, not to the step."""

    @pytest.mark.parametrize("num_ranks", [1, 2, 3])
    def test_the_pressure_gradient_is_computed_inside_a_body(self, monkeypatch, num_ranks):
        from repro.mas import operators as ops
        from repro.runtime.kernel import KernelSpec

        depth, inside = [0], []
        run_body, grad_center = KernelSpec.run_body, ops.grad_center

        def counted(spec):
            depth[0] += 1
            try:
                return run_body(spec)
            finally:
                depth[0] -= 1

        def watched(*args, **kwargs):
            inside.append(depth[0] > 0)
            return grad_center(*args, **kwargs)

        monkeypatch.setattr(KernelSpec, "run_body", counted)
        monkeypatch.setattr(ops, "grad_center", watched)
        m = make(num_ranks=num_ranks)
        m.run(2)
        assert inside == [True] * (2 * len(m.groups))


class TestDroppedModelIsReclaimed:
    """Nothing the model stores refers back to it: reference counting alone
    frees a dropped model and every array it owns.  A back-reference (a
    stored solve object, a bound method kept as an attribute) would leave
    them to the cyclic collector, which runs whenever it happens to; the
    benchmark's ``peak_rss_mb`` is where that shows."""

    CASES = {
        "code1-overlap-fused": (
            CodeVersion.A, dict(halo_overlap=True), dict(cross_region_fusion=True)),
        "d2xu-cheby-pipelined": (
            CodeVersion.D2XU, dict(pcg_precond="cheby", pcg_variant="pipelined"), {}),
        "b3-viscosity": (
            CodeVersion.A,
            dict(ensemble_size=3, nominal_shape=(32, 24, 48),
                 ensemble_vary=(("viscosity", (1e-3, 3e-3, 1e-2)),)),
            {}),
        "cpu": (CodeVersion.CPU, {}, {}),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_no_reference_cycle_through_the_model(self, case):
        import gc
        import weakref
        from dataclasses import replace

        version, model_kw, runtime_kw = self.CASES[case]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            model = MasModel(
                ModelConfig(**{**SMALL, **model_kw, "num_ranks": 2}),
                replace(runtime_config_for(version), **runtime_kw),
            )
            model.run(2)
            # the walks the exchanger recorded outlive the model here, so
            # they must hold nothing of it
            recordings = [plan.recordings for plan in model.halo._plans.values()]
            assert recordings and (any(recordings) or runtime_kw)
            watched = {
                "model": weakref.ref(model),
                "state array": weakref.ref(model.states[0].rho),
                "rank runtime": weakref.ref(model.ranks[0]),
                "halo exchanger": weakref.ref(model.halo),
            }
            del model
            alive = [name for name, ref in watched.items() if ref() is not None]
        finally:
            if was_enabled:
                gc.enable()
        assert not alive, f"kept alive by a reference cycle: {alive}"
