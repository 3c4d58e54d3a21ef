"""PCG variant equivalence, Chebyshev preconditioning, breakdown guard."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mas.pcg import (
    PCG_VARIANTS,
    PRECONDITIONERS,
    chebyshev_preconditioner,
    jacobi_spectral_bounds,
    pcg_solve,
    pcg_solve_ca,
    pcg_solve_pipelined,
)
from tests.mas.pcg_numpy import (
    jacobi_preconditioner,
    numpy_combine,
    numpy_dot,
    numpy_dot_batched,
    numpy_dot_many,
)
from tests.mas.test_pcg import spd_matrix


def solve_variant(variant, a_mat, b, iterations=50, tol=1e-12, precondition=None,
                  **extra):
    """Solve A x = b with one solver variant; returns (x, result)."""
    x = [np.zeros_like(b)]

    def apply_a(v):
        return [a_mat @ v[0]]

    if precondition is None:
        precondition = jacobi_preconditioner([np.diag(a_mat).copy()])
    common = dict(precondition=precondition, combine=numpy_combine,
                  iterations=iterations, tol=tol)
    if variant == "classic":
        res = pcg_solve(apply_a, [b.copy()], x, dot=numpy_dot, **common)
    elif variant == "ca":
        res = pcg_solve_ca(apply_a, [b.copy()], x, dot_many=numpy_dot_many,
                           **common)
    else:
        res = pcg_solve_pipelined(apply_a, [b.copy()], x,
                                  dot_many=numpy_dot_many, **common, **extra)
    return x[0], res


class TestVariantEquivalence:
    @pytest.mark.parametrize("variant", ["ca", "pipelined"])
    def test_matches_classic_solution(self, variant):
        a = spd_matrix(30, 3)
        b = np.arange(30, dtype=float) + 1.0
        x_ref, r_ref = solve_variant("classic", a, b, iterations=200, tol=1e-13)
        x, res = solve_variant(variant, a, b, iterations=200, tol=1e-13)
        assert res.converged
        assert res.variant == variant
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-10

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 24))
    def test_property_ca_and_pipelined_match_classic(self, seed, n):
        """All variants produce the classic solution on random SPD systems."""
        a = spd_matrix(n, seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n)
        x_ref, r_ref = solve_variant("classic", a, b, iterations=4 * n, tol=1e-12)
        assert r_ref.converged
        ref_norm = np.linalg.norm(x_ref)
        for variant in ("ca", "pipelined"):
            x, res = solve_variant(variant, a, b, iterations=4 * n, tol=1e-12)
            assert res.converged, variant
            assert np.linalg.norm(x - x_ref) / ref_norm < 1e-10, variant

    def test_same_krylov_iterates(self):
        """In exact arithmetic the variants are the same method: at matching
        (fixed) iteration counts the iterates agree to rounding."""
        a = spd_matrix(20, 7)
        b = np.ones(20)
        for its in (1, 3, 7):
            x_ref, _ = solve_variant("classic", a, b, iterations=its, tol=0.0)
            for variant in ("ca", "pipelined"):
                x, _ = solve_variant(variant, a, b, iterations=its, tol=0.0)
                assert np.allclose(x, x_ref, rtol=1e-9, atol=1e-12), (variant, its)

    def test_ca_fuses_reductions(self):
        """CA pays 1 fused allreduce per iteration; classic pays 3."""
        a = spd_matrix(16, 5)
        b = np.ones(16)
        _, r_classic = solve_variant("classic", a, b, iterations=10, tol=0.0)
        _, r_ca = solve_variant("ca", a, b, iterations=10, tol=0.0)
        _, r_pipe = solve_variant("pipelined", a, b, iterations=10, tol=0.0)
        # classic: 3 setup + 3/iter; ca: 1 setup + 1/iter; pipelined: 1/iter
        assert r_classic.allreduce_calls == 3 + 3 * 10
        assert r_ca.allreduce_calls == 1 + 10
        assert r_pipe.allreduce_calls == 10
        assert r_classic.allreduce_calls >= 2 * r_ca.allreduce_calls

    def test_pipelined_nonblocking_path(self):
        """dot_many_begin/finish (the overlap path) gives the same answer."""
        a = spd_matrix(24, 11)
        b = np.arange(24, dtype=float)
        finished = []

        def begin(pairs):
            return numpy_dot_many(pairs)

        def finish(handle):
            finished.append(handle)
            return handle

        x_ref, _ = solve_variant("classic", a, b, iterations=200, tol=1e-13)
        x, res = solve_variant("pipelined", a, b, iterations=200, tol=1e-13,
                               dot_many_begin=begin, dot_many_finish=finish)
        assert res.converged
        assert len(finished) == res.allreduce_calls
        assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-10

    def test_pipelined_begin_finish_come_as_pair(self):
        a = spd_matrix(6, 0)
        with pytest.raises(ValueError, match="pair"):
            solve_variant("pipelined", a, np.ones(6),
                          dot_many_begin=lambda pairs: pairs)

    def test_variant_constants(self):
        assert PCG_VARIANTS == ("classic", "ca", "pipelined")
        assert PRECONDITIONERS == ("jacobi", "cheby")


class TestBreakdownGuard:
    def test_zero_preconditioner_reports_breakdown(self):
        """A rho collapse with residual remaining returns non-converged,
        breakdown=True -- not a silent beta=0 restart."""
        a = spd_matrix(10, 2)
        x, res = solve_variant("classic", a, np.ones(10), iterations=20,
                               tol=1e-12,
                               precondition=lambda r: [np.zeros_like(ri) for ri in r])
        assert res.breakdown
        assert not res.converged

    def test_midsolve_collapse_reports_breakdown(self):
        a = spd_matrix(12, 4)
        calls = {"n": 0}
        jac = jacobi_preconditioner([np.diag(a).copy()])

        def failing_precond(r):
            calls["n"] += 1
            if calls["n"] > 3:
                return [np.zeros_like(ri) for ri in r]
            return jac(r)

        for variant in ("classic", "ca", "pipelined"):
            calls["n"] = 0
            _, res = solve_variant(variant, a, np.ones(12), iterations=50,
                                   tol=1e-12, precondition=failing_precond)
            assert res.breakdown, variant
            assert not res.converged, variant

    def test_nan_rho_reports_breakdown(self):
        a = spd_matrix(8, 6)
        calls = {"n": 0}
        jac = jacobi_preconditioner([np.diag(a).copy()])

        def nan_precond(r):
            calls["n"] += 1
            if calls["n"] > 2:
                return [np.full_like(ri, np.nan) for ri in r]
            return jac(r)

        _, res = solve_variant("classic", a, np.ones(8), iterations=50,
                               tol=1e-12, precondition=nan_precond)
        assert res.breakdown

    def test_overconverged_fixed_iterations_not_flagged(self):
        """Fixed-iteration over-solving (rho at the rounding floor with the
        residual converged) must run the full budget without breakdown --
        the calibrated cost model counts those iterations."""
        a = np.eye(12) * 2.0
        for variant in ("classic", "ca", "pipelined"):
            _, res = solve_variant(variant, a, np.ones(12), iterations=30,
                                   tol=0.0)
            assert res.iterations == 30, variant
            assert not res.breakdown, variant
        # Tiny systems polished far past convergence drive the CA alpha to
        # exactly 0.0, which the next step-size update must not divide by.
        for n, seed in ((2, 2), (3, 3)):
            for variant in ("classic", "ca", "pipelined"):
                _, res = solve_variant(
                    variant, spd_matrix(n, seed), np.ones(n), iterations=60,
                    tol=0.0, precondition=lambda r: [ri.copy() for ri in r],
                )
                assert res.iterations == 60, (variant, n)
                assert not res.breakdown, (variant, n)

    @pytest.mark.parametrize("members", [1, 3])
    def test_all_members_broken_returns_before_p_update(self, members):
        """When the rho check leaves no member active, classic returns
        without the p = z + beta p kernels, for one system or a batch whose
        members all break at the same iteration."""
        a = spd_matrix(10, 2)
        shape = (10,) if members == 1 else (members, 10)
        calls = {"precondition": 0, "combine": 0}

        def precondition(r):
            calls["precondition"] += 1
            if calls["precondition"] > 1:  # honest at set-up, zero afterwards
                return [np.zeros_like(ri) for ri in r]
            return [ri.copy() for ri in r]

        def combine(y, alpha, z, roles=None):
            calls["combine"] += 1
            numpy_combine(y, alpha, z)

        res = pcg_solve(
            lambda v: [v[0] @ a], [np.ones(shape)], [np.zeros(shape)],
            dot=numpy_dot if members == 1 else numpy_dot_batched,
            precondition=precondition, combine=combine, iterations=20,
        )
        assert res.breakdown.all() and res.breakdown.shape == (members,)
        assert list(res.iterations) == [1] * members
        assert calls == {"precondition": 2, "combine": 0}


class TestChebyshevPreconditioner:
    def setup_method(self):
        self.a = spd_matrix(40, 9)
        d = np.diag(self.a)
        ev = np.linalg.eigvalsh(np.diag(1.0 / d) @ self.a @ np.eye(40))
        self.bounds = (float(ev.min()), float(ev.max()))
        self.inv_diag = [1.0 / d.copy()]

    def _cheby(self, degree=4):
        return chebyshev_preconditioner(
            lambda v: [self.a @ v[0]], self.inv_diag, degree=degree,
            lam_min=self.bounds[0], lam_max=self.bounds[1],
        )

    def test_cuts_iterations_at_fixed_tolerance(self):
        b = np.arange(40, dtype=float) + 0.5
        _, r_jac = solve_variant("classic", self.a, b, iterations=500, tol=1e-10)
        _, r_cheby = solve_variant("classic", self.a, b, iterations=500,
                                   tol=1e-10, precondition=self._cheby())
        assert r_jac.converged and r_cheby.converged
        assert r_cheby.iterations < r_jac.iterations

    def test_works_under_all_variants(self):
        b = np.ones(40)
        x_ref = np.linalg.solve(self.a, b)
        for variant in ("classic", "ca", "pipelined"):
            x, res = solve_variant(variant, self.a, b, iterations=500,
                                   tol=1e-11, precondition=self._cheby())
            assert res.converged, variant
            assert np.linalg.norm(x - x_ref) / np.linalg.norm(x_ref) < 1e-8

    def test_degree_one_is_scaled_jacobi(self):
        cheb = chebyshev_preconditioner(
            lambda v: [self.a @ v[0]], self.inv_diag, degree=1,
            lam_min=0.5, lam_max=1.5,
        )
        r = [np.ones(40)]
        out = cheb(r)
        assert np.allclose(out[0], self.inv_diag[0] * 1.0)  # D^-1 r / theta

    def test_linear_and_symmetric(self):
        """The preconditioner is a fixed linear SPD operator (PCG needs it)."""
        cheb = self._cheby()
        rng = np.random.default_rng(1)
        u, v = rng.standard_normal(40), rng.standard_normal(40)
        mu = cheb([u.copy()])[0]
        mv = cheb([v.copy()])[0]
        both = cheb([(2.0 * u + 3.0 * v).copy()])[0]
        assert np.allclose(both, 2.0 * mu + 3.0 * mv)      # linear
        assert np.vdot(v, mu) == pytest.approx(np.vdot(u, mv), rel=1e-9)  # symmetric

    def test_validations(self):
        apply_a = lambda v: v  # noqa: E731
        with pytest.raises(ValueError, match="degree"):
            chebyshev_preconditioner(apply_a, self.inv_diag, degree=0,
                                     lam_min=0.5, lam_max=1.5)
        with pytest.raises(ValueError, match="lam_min"):
            chebyshev_preconditioner(apply_a, self.inv_diag, degree=2,
                                     lam_min=0.0, lam_max=1.0)
        with pytest.raises(ValueError, match="nonnegative diagonal"):
            chebyshev_preconditioner(apply_a, [np.array([1.0, -1.0])],
                                     degree=2, lam_min=0.5, lam_max=1.5)


class TestModelVariants:
    """The solver family wired through the full model."""

    @staticmethod
    def _run(variant, precond="jacobi", steps=2):
        from repro.codes import CodeVersion, runtime_config_for
        from repro.mas.model import MasModel, ModelConfig

        model = MasModel(
            ModelConfig(shape=(8, 6, 12), num_ranks=2, pcg_iters=4,
                        pcg_variant=variant, pcg_precond=precond,
                        sts_stages=3),
            runtime_config_for(CodeVersion.A),
        )
        model.run(steps)
        return model

    @pytest.mark.parametrize("variant", ["ca", "pipelined"])
    def test_variant_reproduces_classic_state(self, variant):
        ref = self._run("classic")
        got = self._run(variant)
        for s_ref, s_got in zip(ref.states, got.states):
            for f in ("vr", "vt", "vp", "rho", "temp"):
                a, b = s_ref.get(f), s_got.get(f)
                scale = max(float(np.max(np.abs(a))), 1e-30)
                assert float(np.max(np.abs(a - b))) / scale < 1e-10, (variant, f)

    def test_fused_reductions_lower_simulated_mpi_time(self):
        mpi = {
            v: max(rt.clock.mpi_time for rt in self._run(v).ranks)
            for v in ("classic", "ca", "pipelined")
        }
        assert mpi["ca"] < mpi["classic"]
        assert mpi["pipelined"] < mpi["classic"]

    def test_cheby_precondition_runs_and_stays_physical(self):
        model = self._run("ca", precond="cheby")
        d = model.diagnostics()
        assert np.isfinite(d["mass"]) and d["mass"] > 0
        assert np.isfinite(d["max_vr"])

    def test_invalid_variant_rejected(self):
        from repro.mas.model import ModelConfig

        with pytest.raises(ValueError, match="pcg_variant"):
            ModelConfig(pcg_variant="nope")
        with pytest.raises(ValueError, match="pcg_precond"):
            ModelConfig(pcg_precond="nope")

    def test_telemetry_counts_allreduce_drop(self, tmp_path):
        """pcg_allreduce_calls_total halves (better) from classic to ca."""
        from repro.obs.telemetry import session

        counts = {}
        for variant in ("classic", "ca", "pipelined"):
            with session(tmp_path / variant) as tel:
                self._run(variant, steps=1)
                parsed = {
                    (name, tuple(sorted(s["labels"].items()))): s["value"]
                    for name, m in __import__("json").loads(
                        tel.metrics.to_json_text()
                    ).items()
                    for s in m["samples"]
                    if "value" in s  # histogram samples have no plain value
                }
            counts[variant] = parsed[
                ("pcg_allreduce_calls_total", (("variant", variant),))
            ]
            # the unlabeled reference counters stay intact
            assert parsed[("pcg_solves_total", ())] > 0
        assert counts["classic"] >= 2 * counts["ca"]
        assert counts["classic"] >= 2 * counts["pipelined"]

    def test_pipelined_uses_nonblocking_reduction_when_async(self, tmp_path):
        """On an async-launch runtime the pipelined solver posts
        allreduce_many_begin (no blocking entry barrier)."""
        from unittest import mock

        import repro.mas.implicit_solve as solve_mod

        with mock.patch.object(
            solve_mod, "allreduce_many_begin",
            wraps=solve_mod.allreduce_many_begin,
        ) as spy:
            self._run("pipelined", steps=1)
        assert spy.call_count > 0


class TestSpectralBounds:
    def test_unit_rowsum_operator_bounds(self):
        """For I + dt c L diagonals the Gershgorin interval is
        [1/dmax, 2 - 1/dmax]."""
        diag = [np.array([1.0, 1.5, 2.0]), np.array([1.2, 1.8])]
        lo, hi = jacobi_spectral_bounds(diag)
        assert lo == pytest.approx(0.5)
        assert hi == pytest.approx(1.5)

    def test_identity_diagonal(self):
        lo, hi = jacobi_spectral_bounds([np.ones(4)])
        assert lo == pytest.approx(1.0)
        assert hi == pytest.approx(1.0)

    def test_positive_diagonal_required(self):
        with pytest.raises(ValueError):
            jacobi_spectral_bounds([np.array([1.0, 0.0])])

    def test_bounds_cover_model_operator_spectrum(self):
        """On a real viscosity operator the bounds contain the spectrum of
        D^-1 A (what the Chebyshev preconditioner needs)."""
        from repro.mas.grid import LocalGrid, SphericalGrid
        from repro.mas.viscosity import implicit_matvec, jacobi_diagonal
        from repro.mpi.decomp import Decomposition3D

        shape = (6, 5, 8)
        grid = SphericalGrid.build(shape)
        dec = Decomposition3D(shape, 1)
        lg = LocalGrid.from_global(grid, dec, 0, ghost=1)
        nu, dt = 0.05, 0.1
        diag = jacobi_diagonal(lg, nu, dt)
        lo, hi = jacobi_spectral_bounds([diag])

        # Generalized Rayleigh quotients (v.Av)/(v.Dv) -- bounded by the
        # extreme eigenvalues of D^-1 A -- stay inside the Gershgorin
        # interval for random vectors.
        rng = np.random.default_rng(0)
        i = lg.interior()
        for _ in range(10):
            v = np.zeros(diag.shape)
            v[i] = rng.standard_normal(v[i].shape)
            av = implicit_matvec(v, lg, nu, dt)
            num = float(np.vdot(v[i], av[i]).real)
            den = float(np.vdot(v[i], (diag * v)[i]).real)
            q = num / den
            assert lo - 1e-9 <= q <= hi + 1e-9
