import math
import warnings

import numpy as np
import pytest

from spdmean.errors import DimensionMismatch, DomainError, NotCommuting
from spdmean.karcher import Ensemble, grad_sum, objective
from spdmean.oracle import (
    commuting_oracle,
    finite_diff_directional,
    scalar_karcher_oracle,
    two_matrix_oracle,
)
from spdmean.selfcheck import commuting_ensemble, random_spd
from spdmean.solvers import SolverConfig, arithmetic_mean_init, mm_solve
from spdmean.spd_core import frob_inner, geodesic, riem_dist, sym

from refs import grid_minimize_1d


class TestScalarKarcherOracle:
    def test_pair(self):
        assert scalar_karcher_oracle([1.0, 4.0]) == pytest.approx(2.0)

    def test_triple(self):
        assert scalar_karcher_oracle([1.0, 2.0, 4.0]) == pytest.approx(2.0)

    def test_single(self):
        assert scalar_karcher_oracle([7.0]) == pytest.approx(7.0)

    def test_scale_equivariance(self, rng):
        v = rng.uniform(0.5, 5.0, size=8)
        m = scalar_karcher_oracle(v)
        assert scalar_karcher_oracle(3.0 * v) == pytest.approx(3.0 * m)

    def test_is_stationary_point(self, rng):
        v = rng.uniform(0.5, 5.0, size=8)
        m = scalar_karcher_oracle(v)
        e = Ensemble.from_matrices([np.array([[x]]) for x in v])
        assert abs(grad_sum(e, np.array([[m]]))[0, 0] / e.n) <= 1e-12

    @pytest.mark.parametrize("bad", [[], [1.0, 0.0], [-2.0], [1.0, np.nan], [1.0, np.inf]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(DomainError):
            scalar_karcher_oracle(bad)

    def test_rejects_a_complex_value(self):
        # refused by dtype, not cast to the real part
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^values has a complex entry$"):
                scalar_karcher_oracle([1 + 1j, 2.0])


class TestCommutingOracle:
    def test_diagonal_matrices(self):
        e = Ensemble.from_matrices([np.diag([1.0, 8.0]), np.diag([4.0, 2.0])])
        want = np.diag([2.0, 4.0])
        assert np.allclose(commuting_oracle(e), want, atol=1e-12)

    def test_shared_eigenbasis(self, rng):
        e = commuting_ensemble(rng, 4, 5)
        m = commuting_oracle(e)
        # a commuting mean is a stationary point of the objective
        assert np.linalg.norm(grad_sum(e, m) / e.n) <= 1e-10

    def test_rejects_noncommuting(self, rng):
        e = Ensemble.from_matrices([random_spd(rng, 3), random_spd(rng, 3)])
        with pytest.raises(NotCommuting, match=r"0 and 1"):
            commuting_oracle(e)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_commutation_is_tested_at_any_scale(self, scale):
        # at 1e200 AB − BA overflows to NaN, at 1e-200 it underflows to 0: the
        # pair is tested at unit scale, where it is as far from commuting as at 1
        a, b = np.array([[2.0, 1.0], [1.0, 2.0]]), np.diag([1.0, 3.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            e = Ensemble.from_matrices([scale * a, scale * b])
            with pytest.raises(NotCommuting, match="^matrices 0 and 1 do not commute$"):
                commuting_oracle(e)

    def test_commuting_pair_near_the_float64_maximum(self):
        # the products of the test would overflow, with a warning, at the pair's scale
        e = Ensemble.from_matrices([1e200 * np.eye(2), 1e200 * np.diag([1.0, 2.0])])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = commuting_oracle(e)
        want = 1e200 * np.diag([1.0, math.sqrt(2.0)])
        assert np.allclose(m, want, rtol=1e-12, atol=0.0)  # exp(log 1e200) loses 1e-14


class TestTwoMatrixOracle:
    def test_scalar_midpoint(self):
        out = two_matrix_oracle(np.array([[1.0]]), np.array([[4.0]]))
        assert out[0, 0] == pytest.approx(2.0)

    def test_equidistant(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        m = two_matrix_oracle(a, b)
        assert abs(riem_dist(a, m) - riem_dist(m, b)) <= 1e-9
        assert abs(riem_dist(a, m) - 0.5 * riem_dist(a, b)) <= 1e-9

    def test_is_stationary_point(self, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        e = Ensemble.from_matrices([a, b])
        m = two_matrix_oracle(a, b)
        assert np.linalg.norm(grad_sum(e, m) / e.n) <= 1e-10

    def test_symmetric_in_arguments(self, rng):
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        assert riem_dist(two_matrix_oracle(a, b), two_matrix_oracle(b, a)) <= 1e-9


class TestGridMinimize1d:
    def test_parabola_linear_grid(self):
        # lo = 0 forces the linear fallback; grid includes 1.0 exactly
        arg, val = grid_minimize_1d(lambda x: (x - 1.0) ** 2, 0.0, 4.0, 401)
        assert arg == pytest.approx(1.0, abs=1e-12)
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_log_grid_geometric_mean(self):
        # c1 x + c2 / x is minimized at sqrt(c2 / c1)
        c1, c2 = 2.0, 8.0
        arg, _ = grid_minimize_1d(lambda x: c1 * x + c2 / x, 0.01, 100.0,
                                  100_001)
        assert abs(math.log(arg) - math.log(math.sqrt(c2 / c1))) <= 1e-3

    def test_boundary_minimum(self):
        arg, val = grid_minimize_1d(lambda x: x, 1.0, 2.0, 11)
        assert arg == 1.0 and val == 1.0

    def test_rejects_bad_interval(self):
        with pytest.raises(DomainError):
            grid_minimize_1d(lambda x: x, 2.0, 1.0, 11)

    def test_rejects_too_few_points(self):
        with pytest.raises(DomainError):
            grid_minimize_1d(lambda x: x, 0.0, 1.0, 2)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            grid_minimize_1d(lambda x: float("nan"), 1.0, 2.0, 5)

    def test_karcher_objective_along_scaling(self, rng):
        # t -> F(tX*) is minimized at t = 1 when X* is the mean
        from spdmean.solvers import SolverConfig, arithmetic_mean_init, mm_solve

        mats = [random_spd(rng, 3) for _ in range(4)]
        e = Ensemble.from_matrices(mats)
        xs = mm_solve(e, SolverConfig(), arithmetic_mean_init(e)).mean
        arg, _ = grid_minimize_1d(lambda t: objective(e, t * xs), 0.5, 2.0,
                                  10_001)
        assert abs(math.log(arg)) <= 1e-3


class TestFiniteDiffDirectional:
    def test_linear_function_exact(self, rng):
        a = sym(rng.standard_normal((3, 3)))
        x = random_spd(rng, 3)
        h = sym(rng.standard_normal((3, 3)))
        h /= np.linalg.norm(h)
        fd = finite_diff_directional(lambda m: frob_inner(a, m), x, h)
        assert abs(fd - frob_inner(a, h)) <= 1e-9

    def test_quadratic_function(self):
        x = np.eye(2)
        h = np.eye(2)
        fd = finite_diff_directional(lambda m: frob_inner(m, m), x, h, 1e-5)
        # d ||X||^2 in direction I at I is 2 tr(I) = 4
        assert abs(fd - 4.0) <= 1e-9

    @pytest.mark.parametrize("x, h_dir, error, message", [
        pytest.param(None, np.eye(2), DimensionMismatch,
                     r"expected x to be square, got shape \(\)", id="x-None"),
        pytest.param(np.ones((2, 3)), np.eye(2), DimensionMismatch,
                     r"expected x to be square, got shape \(2, 3\)", id="x-not-square"),
        pytest.param(np.zeros((0, 0)), np.zeros((0, 0)), DimensionMismatch,
                     r"expected x to be at least 1x1, got shape \(0, 0\)", id="x-0x0"),
        pytest.param([[2, True], [True, 2]], np.eye(2), DomainError,
                     "x has a non-numeric entry", id="x-bool-in-list"),
        pytest.param(np.diag([1.0, -1.0]), np.zeros((2, 2)), DomainError,
                     r"x is not positive definite \(eigenvalue -1\)", id="x-indefinite"),
        pytest.param(np.eye(2), np.eye(3), DimensionMismatch,
                     r"expected h_dir to have the shape of x, \(2, 2\), got \(3, 3\)",
                     id="h_dir-3x3"),
        pytest.param(np.eye(2), np.ones(2), DimensionMismatch,
                     r"expected h_dir to have the shape of x, \(2, 2\), got \(2,\)",
                     id="h_dir-vector"),
        pytest.param(np.eye(2), None, DomainError, "h_dir has a non-numeric entry",
                     id="h_dir-None"),
        # x passes; x − hH leaves the cone
        pytest.param(np.diag([1.0, 1e-8]), np.eye(2), DomainError,
                     r"perturbed matrix is not positive definite \(eigenvalue .+\)",
                     id="cone-exit"),
    ])
    def test_checks_x_and_h_dir_before_perturbing(self, x, h_dir, error, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(error, match=f"^{message}$"):
                finite_diff_directional(np.trace, x, h_dir)

    def test_rejects_cone_exit(self):
        x = np.diag([1.0, 1e-8])
        h = np.eye(2)
        with pytest.raises(DomainError):
            finite_diff_directional(lambda m: 0.0, x, h, h=1e-6)

    def test_rejects_a_complex_direction(self):
        # refused by dtype, not cast to the real part with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^h_dir has a complex entry$"):
                finite_diff_directional(np.trace, np.eye(2), [[1j, 0], [0, 0]])

    def test_refuses_a_step_that_does_not_move_x(self):
        # 1 + 1e-16 rounds to 1, and 1 ± 1e-17 to 1: the quotient read -5.55 and 0.0
        e = Ensemble.from_matrices([[[2, .5], [.5, 1]], [[1, .2], [.2, 3]]])

        def f(m):
            return objective(e, m)

        x = np.eye(2)
        for h in (1e-16, 1e-17, 1e-300):
            with pytest.raises(DomainError, match=rf"^finite difference step h={h!r} along h_dir "
                                                  r"does not move x in float64$"):
                finite_diff_directional(f, x, np.eye(2), h)
        want = (f(x + 1e-6 * np.eye(2)) - f(x - 1e-6 * np.eye(2))) / 2e-6
        assert finite_diff_directional(f, x, np.eye(2), 1e-6) == want
        assert finite_diff_directional(f, x, np.zeros((2, 2)), 1e-17) == 0.0

    @pytest.mark.parametrize("h", [0.0, -1e-6, np.inf, np.nan, True,
                                   pytest.param(10**400, id="10**400")])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^finite difference step h must be positive "
                                                  "and finite, got "):
                finite_diff_directional(np.trace, np.eye(2), np.eye(2), h=h)


def _scalar_case(rng):
    vals = rng.uniform(0.2, 8.0, size=int(rng.integers(1, 7)))
    return Ensemble.from_matrices([[[v]] for v in vals]), np.array([[scalar_karcher_oracle(vals)]])


def _commuting_case(rng):
    e = commuting_ensemble(rng, int(rng.integers(2, 6)), int(rng.integers(2, 7)))
    return e, commuting_oracle(e)


def _two_matrix_case(rng):
    p = int(rng.integers(2, 7))
    a, b = random_spd(rng, p), random_spd(rng, p)
    return Ensemble.from_matrices([a, b]), two_matrix_oracle(a, b)


@pytest.mark.parametrize("case", [_scalar_case, _commuting_case, _two_matrix_case],
                         ids=["scalar", "commuting", "two-matrix"])
def test_the_default_tolerance_bounds_the_distance_to_the_mean(case):
    # F = Σ d²(·, Aᵢ) is 2n-strongly geodesically convex, so d(X, X*) ≤ ‖ĝ‖/n: at the default
    # grad_tol of 1e-10·n, d ≤ 1e-10; round-off lifts d above ‖ĝ‖/n by about 3e-15 at most
    for seed in range(8):
        e, want = case(np.random.default_rng(seed))
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.status == "converged"
        assert riem_dist(res.mean, want) <= res.trace[-1].grad_norm / e.n + 1e-13
        assert res.trace[-1].grad_norm / e.n <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_copies_of_two_matrices_have_the_weighted_geodesic_point_as_mean(k, m):
    # k copies of A and m of B: the mean minimizes k·d²(X, A) + m·d²(X, B), the point at
    # t = m/(k + m) on the geodesic from A to B; the swapped t = k/(k + m), which the symmetric
    # two-matrix oracle cannot tell apart, lies |m − k|/(k + m)·d(A, B) from it
    for seed in range(6):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(2, 7))
        a, b = random_spd(rng, p), random_spd(rng, p)
        e = Ensemble.from_matrices([a] * k + [b] * m)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.status == "converged"
        bound = res.trace[-1].grad_norm / e.n + 1e-13
        assert riem_dist(res.mean, geodesic(a, b, m / (k + m))) <= bound
        if k != m:
            assert riem_dist(res.mean, geodesic(a, b, k / (k + m))) > 1e3 * bound


def _fig1_case(rng):
    return Ensemble.from_matrices([random_spd(rng, 10, 1.0, 10.0) for _ in range(10)]), None


def _log_det(a):
    sign, log_det = np.linalg.slogdet(a)
    assert sign == 1
    return log_det


@pytest.mark.parametrize("case", [_fig1_case, _scalar_case, _commuting_case, _two_matrix_case],
                         ids=["fig1", "scalar", "commuting", "two-matrix"])
def test_the_log_det_of_the_mean_is_the_mean_log_det(case):
    # tr ĝ = Σ log det(X^{-1/2} Aᵢ X^{-1/2}) = Σ log det Aᵢ − n·log det X, so at MM's mean
    # |log det X − (1/n) Σ log det Aᵢ| = |tr ĝ|/n ≤ √p‖ĝ‖/n, with no reference mean; the band
    # of 1e-13 covers the slogdet calls, each good to about p·κ·ε ≤ 2.2e-14 here (κ ≤ 10)
    for seed in range(8):
        e = case(np.random.default_rng(seed))[0]
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.status == "converged"
        residual = abs(_log_det(res.mean) - math.fsum(map(_log_det, e.mats)) / e.n)
        assert residual <= math.sqrt(e.dim) * res.trace[-1].grad_norm / e.n + 1e-13
