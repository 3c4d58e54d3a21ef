"""PCG solver on reference problems."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.mas.pcg import PcgResult, pcg_solve
from tests.mas.pcg_numpy import jacobi_preconditioner, numpy_combine, numpy_dot


def solve_dense(a_mat, b, iterations=50, tol=1e-12, precondition=None):
    """Helper: solve A x = b with our PCG on a dense SPD matrix."""
    x = [np.zeros_like(b)]

    def apply_a(v):
        return [a_mat @ v[0]]

    if precondition is None:
        precondition = jacobi_preconditioner([np.diag(a_mat).copy()])
    res = pcg_solve(
        apply_a,
        [b.copy()],
        x,
        dot=numpy_dot,
        precondition=precondition,
        combine=numpy_combine,
        iterations=iterations,
        tol=tol,
    )
    return x[0], res


def spd_matrix(n, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((n, n))
    return m @ m.T + n * np.eye(n)


def textbook_pcg(a_mat, b, inv_diag, iterations, tol):
    """Independent reference: Jacobi-preconditioned CG as in any textbook,
    one system, no masking, no telemetry. Returns (x, iterations run)."""
    x = np.zeros_like(b)
    r = b - a_mat @ x
    z = r * inv_diag
    p = z.copy()
    rz = float(np.vdot(r, z))
    b_norm = np.sqrt(max(float(np.vdot(b, b)), 1e-300))
    for it in range(1, iterations + 1):
        ap = a_mat @ p
        alpha = rz / float(np.vdot(p, ap))
        x += alpha * p
        r -= alpha * ap
        if np.sqrt(max(float(np.vdot(r, r)), 0.0)) / b_norm < tol:
            break
        z = r * inv_diag
        rz_new = float(np.vdot(r, z))
        p *= rz_new / rz
        p += z
        rz = rz_new
    return x, it


class TestPcgSolve:
    def test_solves_spd_system(self):
        a = spd_matrix(20, 0)
        b = np.arange(20, dtype=float)
        x, res = solve_dense(a, b)
        assert res.converged
        assert np.allclose(a @ x, b, atol=1e-8)

    def test_identity_converges_in_one_iteration(self):
        a = np.eye(8)
        b = np.ones(8)
        x, res = solve_dense(a, b, tol=1e-14)
        assert res.iterations == 1
        assert np.allclose(x, b)

    def test_fixed_iterations_no_early_exit(self):
        a = spd_matrix(10, 1)
        b = np.ones(10)
        _, res = solve_dense(a, b, iterations=7, tol=0.0)
        assert res.iterations == 7

    def test_residual_decreases(self):
        a = spd_matrix(30, 2)
        b = np.ones(30)
        _, r5 = solve_dense(a, b, iterations=5, tol=0.0)
        _, r20 = solve_dense(a, b, iterations=20, tol=0.0)
        assert r20.residual_norm < r5.residual_norm

    def test_indefinite_operator_detected(self):
        a = -np.eye(5)
        with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
            solve_dense(a, np.ones(5), precondition=lambda r: [ri.copy() for ri in r])

    def test_validations(self):
        with pytest.raises(ValueError):
            pcg_solve(
                lambda v: v, [np.ones(3)], [np.zeros(3)],
                dot=numpy_dot, precondition=lambda r: r,
                combine=numpy_combine, iterations=0,
            )
        with pytest.raises(ValueError, match="rank count"):
            pcg_solve(
                lambda v: v, [np.ones(3)], [],
                dot=numpy_dot, precondition=lambda r: r,
                combine=numpy_combine, iterations=1,
            )

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 24))
    def test_property_solution_satisfies_system(self, seed, n):
        a = spd_matrix(n, seed)
        rng = np.random.default_rng(seed + 1)
        b = rng.standard_normal(n)
        x, res = solve_dense(a, b, iterations=4 * n, tol=1e-11)
        assert res.converged
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-8

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000), st.integers(4, 24))
    def test_property_single_system_matches_textbook_bitwise(self, seed, n):
        """B = 1 is the degenerate case of the member-axis solver: on one
        system it is textbook PCG to the last bit."""
        a = spd_matrix(n, seed)
        b = np.random.default_rng(seed + 1).standard_normal(n)
        x_ref, its_ref = textbook_pcg(a, b, 1.0 / np.diag(a), 4 * n, 1e-11)
        x, res = solve_dense(a, b, iterations=4 * n, tol=1e-11)
        assert np.array_equal(x, x_ref)
        assert res.iterations.tolist() == [its_ref]

    def test_multi_rank_arrays(self):
        """PCG over a rank-partitioned diagonal system."""
        diag_parts = [np.array([2.0, 2.0]), np.array([4.0, 4.0])]
        rhs = [np.array([2.0, 4.0]), np.array([8.0, 12.0])]
        x = [np.zeros(2), np.zeros(2)]

        def apply_a(v):
            return [d * vi for d, vi in zip(diag_parts, v)]

        res = pcg_solve(
            apply_a, rhs, x,
            dot=numpy_dot,
            precondition=jacobi_preconditioner(diag_parts),
            combine=numpy_combine,
            iterations=10, tol=1e-14,
        )
        assert res.converged
        assert np.allclose(x[0], [1.0, 2.0])
        assert np.allclose(x[1], [2.0, 3.0])


class TestJacobiPreconditioner:
    def test_nonpositive_diag_rejected(self):
        with pytest.raises(ValueError):
            jacobi_preconditioner([np.array([1.0, 0.0])])

    def test_applies_inverse(self):
        p = jacobi_preconditioner([np.array([2.0, 4.0])])
        out = p([np.array([2.0, 4.0])])
        assert np.allclose(out[0], [1.0, 1.0])
