import math
import warnings

import numpy as np
import pytest

from spdmean.errors import DomainError, NotCommuting
from spdmean.karcher import Ensemble, grad_sum, objective
from spdmean.oracle import (
    commuting_oracle,
    finite_diff_directional,
    scalar_karcher_oracle,
    two_matrix_oracle,
)
from spdmean.selfcheck import commuting_ensemble, random_spd
from spdmean.spd_core import frob_inner, riem_dist, sym

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

    @pytest.mark.parametrize("h", [0.0, -1e-6, np.inf, np.nan, True,
                                   pytest.param(10**400, id="10**400")])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, h):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^finite difference step h must be positive "
                                                  "and finite, got "):
                finite_diff_directional(np.trace, np.eye(2), np.eye(2), h=h)
