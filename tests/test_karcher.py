import math
import re
import warnings

import numpy as np
import pytest

from spdmean.errors import DimensionMismatch, DomainError
from spdmean.karcher import (
    Ensemble,
    _frame_eigh,
    _frame_grad,
    _frame_terms,
    SurrogateCoeffs,
    euclidean_gradient,
    g1_scalar,
    g2_scalar,
    grad_sum,
    objective,
    surrogate_coeffs,
    surrogate_minimizer,
    surrogate_value,
)
from spdmean.bench import (ExperimentSpec, SolverSpec, SpectrumSpec, generate_ensemble,
                           random_orthogonal)
from spdmean import karcher, selfcheck, spd_core
from spdmean.selfcheck import fd_gap, random_ensemble, random_spd, random_sym
from spdmean.solvers import (SOLVERS, SolverConfig, arithmetic_mean_init, gd_fixed_step_solve,
                             mm_solve)
from spdmean.spd_core import (check_spd, exp_m, frob_inner, geodesic, inv_m, inv_sqrt_m, riem_dist,
                              sqrt_m, sym)

from refs import grid_minimize_1d, per_matrix_terms, two_root_minimizer


class TestEnsemble:
    def test_cache_coherence(self, rng):
        # p = 40 takes the blocked triangular inverse, p = 5 numpy's
        for p in (5, 40):
            e = random_ensemble(rng, 4, p)
            for i in range(e.n):
                a, li = e.mats[i], e.inv_factors[i]
                assert np.linalg.norm(li.T @ li @ a - np.eye(e.dim)) <= 1e-10
                assert np.linalg.norm(li @ a @ li.T - np.eye(e.dim)) <= 1e-10

    def test_empty_rejected(self):
        with pytest.raises(DomainError):
            Ensemble.from_matrices([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(DimensionMismatch):
            Ensemble.from_matrices([np.eye(2), np.eye(3)])

    def test_non_spd_rejected(self):
        with pytest.raises(DomainError):
            Ensemble.from_matrices([np.diag([1.0, -1.0])])

    @pytest.mark.parametrize("bad, message", [
        ([[1.0, 0.5], [0.0, 1.0]], "matrix 1 is not symmetric"),
        ([[1.0, 0.0], [0.0, -2.0]],
         "matrix 1 is not positive definite (eigenvalue -2)"),
        ([[1.0, 0.0], [0.0, np.inf]], "matrix 1 has a non-finite entry"),
        ([[np.nan, 0.0], [0.0, 1.0]], "matrix 1 has a non-finite entry"),
        # each matrix is tested at its own scale, not at the stack's
        (np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e200, "matrix 1 is not symmetric"),
        (np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e-200, "matrix 1 is not symmetric"),
    ])
    def test_diagnostic_names_matrix(self, bad, message):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError) as info:
                Ensemble.from_matrices([np.eye(2), np.array(bad)])
        assert str(info.value) == message

    @pytest.mark.parametrize("mats, error, message", [
        # the first bad matrix is reported, whatever the later ones fail
        ([np.eye(2), np.diag([1.0, -1.0]), np.diag([np.nan, 1.0])], DomainError,
         "matrix 1 is not positive definite (eigenvalue -1)"),
        # within a matrix: non-finite, then symmetric, then positive definite
        ([np.array([[np.nan, 0.5], [0.0, -1.0]])], DomainError,
         "matrix 0 has a non-finite entry"),
        ([np.array([[1.0, 0.5], [0.0, -1.0]])], DomainError,
         "matrix 0 is not symmetric"),
        # the positivity floor is relative to the largest eigenvalue
        ([np.diag([1.0, 1e-14])], DomainError,
         "matrix 0 is not positive definite (eigenvalue 1e-14)"),
        # a dimension mismatch only when every matrix is SPD on its own
        ([np.eye(2), np.eye(3), np.diag([1.0, -1.0])], DomainError,
         "matrix 2 is not positive definite (eigenvalue -1)"),
        ([np.eye(2), np.eye(3)], DimensionMismatch,
         "matrix 1 has dim 3, expected 2"),
        # the only bad matrix is the last, tiny and skewed
        ([np.eye(2)] * 9 + [np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e-200], DomainError,
         "matrix 9 is not symmetric"),
    ])
    def test_first_bad_matrix_in_check_order(self, mats, error, message):
        with pytest.raises(error) as info:
            Ensemble.from_matrices(mats)
        assert str(info.value) == message

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_asymmetry_seen_at_any_scale(self, scale):
        # entries beyond about 1e±154 overflow or underflow the Frobenius
        # norms; the matrix must still be rejected, with no warning, also
        # after a matrix of normal scale
        skewed = np.array([[1.0, 0.5], [0.0, 1.0]]) * scale
        for lead in ([], [np.eye(2)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with pytest.raises(DomainError) as info:
                    Ensemble.from_matrices(lead + [skewed])
            assert str(info.value) == f"matrix {len(lead)} is not symmetric"

    def test_entries_near_float64_max(self):
        # (A + Aᵀ)/2 would overflow here: accepted with finite factors, or
        # rejected by name, never with inf factors or a warning
        big = np.eye(2) * 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = Ensemble.from_matrices([big])
            with pytest.raises(DomainError) as info:
                Ensemble.from_matrices([np.diag([1e308, 1.0])])
        assert str(info.value) == "matrix 0 is not positive definite (eigenvalue 1)"
        assert np.array_equal(e.mats[0], big)
        li = e.inv_factors[0]
        assert np.all(np.isfinite(li))
        assert np.allclose(li @ big @ li.T, np.eye(2), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("mats, message", [
        ([np.zeros((0, 0))], "expected matrix 0 to be at least 1x1, got shape (0, 0)"),
        ([np.eye(2), np.zeros((0, 0))], "expected matrix 1 to be at least 1x1, got shape (0, 0)"),
    ])
    def test_empty_matrix_rejected(self, mats, message):
        with pytest.raises(DimensionMismatch) as info:
            Ensemble.from_matrices(mats)
        assert str(info.value) == message

    @pytest.mark.parametrize("mats, message", [
        ([np.array([[1 + 5j]])], "matrix 0 has a complex entry"),
        ([np.eye(2), np.array([[2.0, 1j], [-1j, 2.0]])], "matrix 1 has a complex entry"),
        ([np.eye(2), np.eye(3, dtype=complex)], "matrix 1 has a complex entry"),
        ([np.eye(2, dtype=bool)], "matrix 0 has a non-numeric entry"),
        (np.ones((2, 1, 1), dtype=bool), "matrix 0 has a non-numeric entry"),
        ([[["1", "0"], ["0", "1"]]], "matrix 0 has a non-numeric entry"),
        ([np.eye(2), np.array([[1.0, 0.0], [0.0, "2"]], dtype=object)],
         "matrix 1 has a non-numeric entry"),
        ([np.eye(2), np.array([[1.0, 0.0], [0.0, "x"]], dtype=object)],
         "matrix 1 has a non-numeric entry"),
        # numpy upcasts these lists to a float and a string stack
        ([np.eye(2), np.eye(2, dtype=bool), np.eye(2)], "matrix 1 has a non-numeric entry"),
        ([np.eye(2), np.eye(2), np.array([["1", "0"], ["0", "1"]])],
         "matrix 2 has a non-numeric entry"),
    ])
    def test_complex_matrix_rejected(self, mats, message):
        # refused before any float conversion, which would drop the imaginary
        # part, take a bool as 0 or 1 and parse a string
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                Ensemble.from_matrices(mats)
        assert str(info.value) == message

    def test_roots_match_matrix_functions(self, rng):
        e = random_ensemble(rng, 5, 4)
        for i in range(e.n):
            li, ai = e.inv_factors[i], inv_m(e.mats[i])
            assert np.linalg.norm(li.T @ li - ai) <= 1e-14 * np.linalg.norm(ai)


class TestObjective:
    def test_zero_at_singleton(self, rng):
        a = random_spd(rng, 3)
        e = Ensemble.from_matrices([a])
        assert objective(e, a) <= 1e-20

    def test_scaled_identity(self):
        e = Ensemble.from_matrices([np.eye(2)])
        assert abs(objective(e, math.e * np.eye(2)) - 2.0) <= 1e-12

    def test_scalar_pair(self):
        e = Ensemble.from_matrices([np.array([[1.0]]), np.array([[4.0]])])
        want = 2.0 * math.log(2.0) ** 2
        assert abs(objective(e, np.array([[2.0]])) - want) <= 1e-12

    def test_dimension_mismatch(self, rng):
        e = random_ensemble(rng, 2, 3)
        with pytest.raises(DimensionMismatch):
            objective(e, np.eye(4))


# Every call that takes a point of the problem, with the name its errors give the point.
_VIEWS = {
    "objective": (objective, "point"),
    "grad_sum": (grad_sum, "point"),
    "euclidean_gradient": (euclidean_gradient, "point"),
    "surrogate_coeffs": (surrogate_coeffs, "point"),
    "surrogate_value": (lambda e, x: surrogate_value(surrogate_coeffs(e, np.eye(2)), x), "point"),
    "geodesic-x1": (lambda e, x: geodesic(x, np.eye(2), 0.3), "x1"),
    "geodesic-x2": (lambda e, x: geodesic(np.eye(2), x, 0.3), "x2"),
    "riem_dist-x1": (lambda e, x: riem_dist(x, np.eye(2)), "x1"),
    "riem_dist-x2": (lambda e, x: riem_dist(np.eye(2), x), "x2"),
    **{f"{kind}-start": (lambda e, x, solve=solve: solve(e, SolverConfig(), x), "point")
       for kind, solve in SOLVERS.items()},
}


@pytest.mark.parametrize("view", sorted(_VIEWS))
@pytest.mark.parametrize("point, message", [
    pytest.param([[2.0, 1.5], [0.0, 2.0]], "is not symmetric", id="skewed"),
    pytest.param([[np.nan, 0.0], [0.0, 1.0]], "has a non-finite entry", id="nan"),
    # positive, but below POSITIVITY_FLOOR: one rule for every point
    pytest.param([[1.0, 0.0], [0.0, 1e-14]], r"is not positive definite \(eigenvalue 1e-14\)",
                 id="below-floor"),
    # refused, not cast to its real part with a ComplexWarning
    pytest.param([[2.0, 1j], [-1j, 2.0]], "has a complex entry", id="complex"),
    # refused, not taken as 0 or 1 or parsed
    pytest.param([[True, False], [False, True]], "has a non-numeric entry", id="bool"),
    pytest.param([["1", "0"], ["0", "1"]], "has a non-numeric entry", id="string"),
    pytest.param(np.array([[1.0, 0.0], [0.0, "x"]], dtype=object), "has a non-numeric entry",
                 id="object"),
])
def test_views_validate_their_point(view, point, message, rng):
    e = random_ensemble(rng, 3, 2)
    call, name = _VIEWS[view]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=f"^{name} {message}$"):
            call(e, np.array(point))


@pytest.mark.parametrize("call, what", [
    pytest.param(euclidean_gradient, "euclidean gradient", id="euclidean_gradient"),
    pytest.param(surrogate_coeffs, "surrogate", id="surrogate_coeffs"),
    pytest.param(lambda e, x: surrogate_value(surrogate_coeffs(e, np.eye(3)), x),
                 "surrogate value", id="surrogate_value"),
])
def test_views_at_a_subnormal_point_raise(call, what, rng):
    # these points pass validation, but X⁻¹ = F⁻ᵀF⁻¹ overflows; off the
    # diagonal, entries of both signs can overflow and sum to NaN
    e = random_ensemble(rng, 3, 3)
    for x in [np.eye(3)] + [random_spd(rng, 3) for _ in range(10)]:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=f"^{what} at point overflows float64$"):
                call(e, 1e-310 * x)


class TestGradDirection:
    def test_zero_at_singleton(self, rng):
        a = random_spd(rng, 3)
        e = Ensemble.from_matrices([a])
        assert np.linalg.norm(grad_sum(e, a) / e.n) <= 1e-12

    def test_scalar_geometric_mean_stationary(self):
        e = Ensemble.from_matrices([np.array([[1.0]]), np.array([[4.0]])])
        assert abs(grad_sum(e, np.array([[2.0]]))[0, 0] / e.n) <= 1e-14

    def test_identity_pair(self):
        e = Ensemble.from_matrices([np.eye(2), math.e**2 * np.eye(2)])
        # (1/2)(log I + log(e^2 I)) = I
        assert np.allclose(grad_sum(e, np.eye(2)) / e.n, np.eye(2), atol=1e-12)

    def test_validates_its_point_once(self, rng, monkeypatch):
        # X^{1/2} is taken from the point as validated, with no second check
        def counted(name, fn):
            def wrapper(*args):
                calls.append(name)
                return fn(*args)
            return wrapper

        e, calls = random_ensemble(rng, 3, 3), []
        for name in ("check_spd_stack", "check_symmetric", "cholesky"):
            monkeypatch.setattr(spd_core, name, counted(name, getattr(spd_core, name)))
        grad_sum(e, random_spd(rng, 3))
        assert calls == ["check_spd_stack", "cholesky"]


class TestScalarWeights:
    def test_at_one(self):
        assert g1_scalar(1.0) == 1.0
        assert g2_scalar(1.0) == 1.0

    def test_at_e(self):
        assert abs(g1_scalar(math.e) - (math.sqrt(2) + 1) / math.e) <= 1e-15
        assert abs(g2_scalar(math.e) - (math.sqrt(2) - 1) * math.e) <= 1e-14

    @pytest.mark.parametrize("x", [1e-8, 1e-3, 1.0, 1e3, 1e8])
    def test_product_is_one(self, x):
        assert abs(g1_scalar(x) * g2_scalar(x) - 1.0) <= 1e-14

    def test_positive_across_wide_range(self):
        for x in 10.0 ** np.linspace(-12, 12, 49):
            assert g1_scalar(x) > 0
            assert g2_scalar(x) > 0

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_domain_error(self, x):
        with pytest.raises(DomainError):
            g1_scalar(x)
        with pytest.raises(DomainError):
            g2_scalar(x)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, np.float64(math.nan), True,
                                   10**400, np.array([1.0, 2.0]), np.array(2.0), 1j, 2 + 0j,
                                   "2", None],
                             ids=["nan", "inf", "-inf", "float64-nan", "True", "10**400", "array",
                                  "0-d-array", "1j", "2+0j", "str", "None"])
    def test_refuses_what_is_not_a_positive_finite_real(self, x):
        # no NaN, warning, bool-as-1, ambiguous truth value or raw TypeError
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for f, weight in ((g1_scalar, "g1"), (g2_scalar, "g2")):
                with pytest.raises(DomainError, match=f"^{weight} requires x to be a positive "
                                                      "finite real number, got "):
                    f(x)

    @pytest.mark.parametrize("x", [2, np.float32(2.0), np.float64(2.0)],
                             ids=["int", "float32", "float64"])
    def test_any_real_type_is_its_float(self, x):
        assert g1_scalar(x) == g1_scalar(2.0) and g2_scalar(x) == g2_scalar(2.0)

    def test_second_order_condition(self):
        # g1(x') e^z + g2(x') e^{-z} >= 2 on a (z', z) grid
        zps = np.linspace(-20, 20, 41)
        zs = np.linspace(-20, 20, 41)
        for zp in zps:
            a, b = g1_scalar(math.exp(zp)), g2_scalar(math.exp(zp))
            vals = a * np.exp(zs) + b * np.exp(-zs)
            assert np.all(vals >= 2.0 - 1e-12)

    def test_scalar_surrogate_uniqueness(self):
        # x -> g1(x')x + g2(x')/x - ln^2 x has its grid minimum at the
        # grid point nearest x', over a wide log-spaced grid
        xp = 3.0
        a, b = g1_scalar(xp), g2_scalar(xp)
        arg, _ = grid_minimize_1d(
            lambda x: a * x + b / x - math.log(x) ** 2,
            xp * 1e-6, xp * 1e6, 100_001)
        spacing = 12.0 * math.log(10.0) / 100_000
        assert abs(math.log(arg) - math.log(xp)) <= spacing


class TestCoefficientMatrices:
    def test_singleton_at_itself(self, rng):
        a = random_spd(rng, 3)
        e = Ensemble.from_matrices([a])
        assert np.allclose(surrogate_coeffs(e, a).c1, inv_m(a), atol=1e-10)
        assert np.allclose(surrogate_coeffs(e, a).c2, a, atol=1e-10)

    def test_scalar_reduction(self):
        e = Ensemble.from_matrices([np.array([[1.0]])])
        x = np.array([[math.e]])
        assert abs(surrogate_coeffs(e, x).c1[0, 0] - g1_scalar(math.e)) <= 1e-14
        assert abs(surrogate_coeffs(e, x).c2[0, 0] - g2_scalar(math.e)) <= 1e-14

    def test_identity_pair(self):
        e = Ensemble.from_matrices([np.eye(2), np.eye(2)])
        assert np.allclose(surrogate_coeffs(e, np.eye(2)).c1, 2 * np.eye(2), atol=1e-14)
        assert np.allclose(surrogate_coeffs(e, np.eye(2)).c2, 2 * np.eye(2), atol=1e-14)

    def test_outputs_spd(self, rng):
        e = random_ensemble(rng, 3, 4)
        x = random_spd(rng, 4)
        check_spd(surrogate_coeffs(e, x).c1)
        check_spd(surrogate_coeffs(e, x).c2)


def _geometric_regime(rng):
    # spectra 10^0 .. 10^8.1: the condition-1e8 regime of acceptance criterion 10
    spec = ExperimentSpec(
        n=10, p=10, spectrum=SpectrumSpec(kind="geometric", dim=10, a=0.9),
        runs=1, seed=0, solvers=[SolverSpec(kind="mm")])
    e = generate_ensemble(spec, rng)
    return [(e, arithmetic_mean_init(e)), (e, random_spd(rng, 10))]


AGREEMENT_REGIMES = {
    "random": lambda rng: [(random_ensemble(rng, n, p), random_spd(rng, p))
                           for n, p in ((2, 3), (5, 4), (10, 10), (4, 1))],
    "single-matrix": lambda rng: [(random_ensemble(rng, 1, p), random_spd(rng, p))
                                  for p in (1, 3, 6)],
    "condition-1e8": _geometric_regime,
}


def _agreement_tol(e, x):
    # Both sides round differently; to first order their results differ by
    # round-off times the largest condition number of the decomposed Yᵢ,
    # which is about 1e8 in the geometric regime.
    w = np.linalg.eigvalsh(e.inv_factors @ x @ np.swapaxes(e.inv_factors, 1, 2))
    return max(1e-12, np.finfo(float).eps * np.max(w[:, -1] / w[:, 0]))


class TestStackedKernelAgreement:
    """The stacked kernels against the per-matrix definitions in the oracle."""

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_matches_per_matrix_loop(self, regime, rng):
        views = {"objective": objective, "grad_sum": grad_sum,
                 "f1": lambda e, x: surrogate_coeffs(e, x).c1,
                 "f2": lambda e, x: surrogate_coeffs(e, x).c2,
                 "euclidean_gradient": euclidean_gradient}
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            ref = per_matrix_terms(e, x)
            for name, view in views.items():
                err = np.linalg.norm(view(e, x) - ref[name]) / np.linalg.norm(ref[name])
                assert err <= tol, f"{regime} {name}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_views_do_not_depend_on_the_factor(self, regime, rng, monkeypatch):
        # where validation finds no Cholesky factor it hands the views
        # F = U D^{1/2} instead of L; each view is a function of its point alone
        def views(e, x):
            s, a = surrogate_coeffs(e, x), e.mats[0]
            return {"objective": objective(e, x), "grad_sum": grad_sum(e, x),
                    "f1": s.c1, "f2": s.c2, "euclidean_gradient": euclidean_gradient(e, x),
                    "surrogate_value": surrogate_value(s, a) - s.c0,  # a sum of positive terms
                    "geodesic": geodesic(x, a, 0.3), "riem_dist": riem_dist(x, a)}

        def no_factor(a, message):
            if message == "stack has no Cholesky factor":
                refused.append(a)
                raise DomainError(message)
            return real(a, message)

        cases = AGREEMENT_REGIMES[regime](rng)
        wants = [views(e, x) for e, x in cases]
        refs = [per_matrix_terms(e, x) for e, x in cases]  # it validates points too
        real, refused = spd_core.cholesky, []
        monkeypatch.setattr(spd_core, "cholesky", no_factor)
        for (e, x), want, ref in zip(cases, wants, refs):
            tol = _agreement_tol(e, x)
            for name, got in views(e, x).items():
                for other in (want[name], ref.get(name, want[name])):
                    err = np.linalg.norm(got - other) / np.linalg.norm(other)
                    assert err <= tol, f"{regime} {name}: {err:.3g} > {tol:.3g}"
        assert len(refused) == 9 * len(cases)  # one per validated point

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_mm_step_matches_two_root_minimizer(self, regime, rng):
        # one MM step in the frame of a factor of x against the minimizer
        # of the surrogate built from the per-matrix f1 and f2 at x
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            ref = per_matrix_terms(e, x)
            want = two_root_minimizer(ref["f1"], ref["f2"])
            got = mm_solve(e, SolverConfig(max_iters=1, grad_tol=1e-300), x).mean
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_gd_step_matches_sandwich_form(self, regime, rng):
        # one fixed GD step in the frame of a factor of x against
        # X^{1/2} exp(ν D) X^{1/2} with D from the per-matrix gradient sum
        cfg = SolverConfig(max_iters=1, grad_tol=1e-300)
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            d = per_matrix_terms(e, x)["grad_sum"] / e.n
            s = sqrt_m(x)
            want = s @ exp_m(cfg.nu * d) @ s
            got = gd_fixed_step_solve(e, cfg, x).mean
            err = np.linalg.norm(got - want) / np.linalg.norm(want)
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_frame_gradient_norm_matches_grad_sum(self, regime, rng):
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            frame_grad = _frame_terms(_frame_eigh(e, np.linalg.cholesky(x)))[1]
            want = np.linalg.norm(grad_sum(e, x))
            err = abs(np.linalg.norm(frame_grad) - want) / want
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_mm_gradient_matches_gradient_reduction(self, regime, rng):
        # the MM kernel's ĝ = (c̃2 − c̃1)/2 against GD's −Σᵢ Ûᵢ D(log wᵢ) Ûᵢᵀ
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            frame = _frame_eigh(e, np.linalg.cholesky(x))
            want = _frame_grad(frame)[1]
            err = np.linalg.norm(_frame_terms(frame)[1] - want) / np.linalg.norm(want)
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_coefficient_difference_is_twice_the_gradient(self, regime, rng):
        # r − 1/r = 2 log w, so c̃1 − c̃2 = −2ĝ; at G = X^{1/2}, ĝ is the
        # per-matrix gradient sum
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            want = -2.0 * per_matrix_terms(e, x)["grad_sum"]
            _, _, c1, c2 = _frame_terms(_frame_eigh(e, sqrt_m(x)))
            err = np.linalg.norm(c1 - c2 - want) / np.linalg.norm(want)
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    def test_gradient_floor_in_condition_1e8_regime(self, rng):
        # MM still converges at the default tolerance, and at its mean the
        # difference form moves ĝ by far less than the tolerance
        e, x0 = _geometric_regime(rng)[0]
        cfg = SolverConfig()
        tol = cfg.effective_grad_tol(e.n)
        res = mm_solve(e, cfg, x0)
        assert res.converged and res.trace[-1].grad_norm < tol
        frame = _frame_eigh(e, np.linalg.cholesky(res.mean))
        assert np.linalg.norm(_frame_terms(frame)[1] - _frame_grad(frame)[1]) <= 1e-3 * tol

    def test_condition_1e8_regime_converges_on_twenty_seeds(self):
        # the gradient floor sits near the default tolerance here, so the
        # accuracy of the inverse factors decides whether a run converges
        for seed in range(20):
            e, x0 = _geometric_regime(np.random.default_rng(seed))[0]
            res = mm_solve(e, SolverConfig(), x0)
            assert res.converged, f"seed {seed}: {res.status} after {res.iters_used} iterations"


class TestSurrogate:
    def test_singleton_coeffs(self, rng):
        a = random_spd(rng, 3)
        e = Ensemble.from_matrices([a])
        s = surrogate_coeffs(e, a)
        assert np.allclose(s.c1, inv_m(a), atol=1e-10)
        assert np.allclose(s.c2, a, atol=1e-10)
        assert abs(s.c0 - (-2 * 3)) <= 1e-9

    def test_touches_objective_at_expansion_point(self, rng):
        _, gap, _ = selfcheck.check_majorization(rng, 10)
        assert gap <= 1e-10

    def test_majorizes_objective(self, rng):
        # p in 1..6 and n in 1..5, one wider than criterion 2; also gates touching
        assert selfcheck.check_majorization(rng, 50, p_range=(1, 7), n_range=(1, 6))[-1]

    def test_value_examples(self):
        s = SurrogateCoeffs(c1=np.eye(2), c2=np.eye(2), c0=0.0)
        assert abs(surrogate_value(s, np.eye(2)) - 4.0) <= 1e-14
        assert abs(surrogate_value(s, np.diag([2.0, 0.5])) - 5.0) <= 1e-14

    @pytest.mark.parametrize("which", ["c1", "c2"])
    def test_value_names_a_complex_coefficient(self, which):
        coeffs = {"c1": np.eye(2), "c2": np.eye(2), which: 1j * np.eye(2)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{which} has a complex entry$"):
                surrogate_value(SurrogateCoeffs(c0=0.0, **coeffs), np.eye(2))

    def test_value_at_a_nonsquare_point(self):
        s = SurrogateCoeffs(c1=np.eye(2), c2=np.eye(2), c0=0.0)
        with pytest.raises(DimensionMismatch,
                           match=r"^expected point to be square, got shape \(2, 3\)$"):
            surrogate_value(s, np.ones((2, 3)))


class TestSurrogateMinimizer:
    def test_identity(self):
        assert np.allclose(surrogate_minimizer(np.eye(3), np.eye(3)), np.eye(3))

    def test_scaled_identity(self):
        out = surrogate_minimizer(3.0 * np.eye(2), 12.0 * np.eye(2))
        assert np.allclose(out, 2.0 * np.eye(2), atol=1e-12)

    def test_stationarity(self, rng):
        assert selfcheck.check_minimizer_stationarity(rng, 20)[-1]

    def test_beats_random_perturbations(self, rng):
        c1, c2 = random_spd(rng, 3), random_spd(rng, 3)
        x = surrogate_minimizer(c1, c2)

        def val(m):
            return frob_inner(c1, m) + frob_inner(c2, inv_m(m))

        best = val(x)
        for _ in range(1000):
            pert = x + random_sym(rng, 3, scale=1e-2 * np.linalg.norm(x))
            if np.linalg.eigvalsh(pert)[0] <= 0:
                continue
            assert val(pert) >= best - 1e-12 * abs(best)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            surrogate_minimizer(np.eye(2), np.eye(3))

    @pytest.mark.parametrize("shape", [(2, 2, 2), (2, 3)], ids=["stack", "non-square"])
    def test_rejects_a_non_square_argument(self, shape):
        with pytest.raises(DimensionMismatch,
                           match=rf"^expected c1 to be square, got shape {re.escape(str(shape))}$"):
            surrogate_minimizer(np.ones(shape), np.ones(shape))

    @pytest.mark.parametrize("c1, c2", [
        (np.eye(2), np.diag([1.0, -1.0])),
        (np.eye(2), np.zeros((2, 2))),
        (np.diag([1.0, -1.0]), np.eye(2)),
        (np.eye(2), np.full((2, 2), np.nan)),
        (np.full((2, 2), np.nan), np.eye(2)),
        (np.diag([1.0, np.inf]), np.eye(2)),
        (np.eye(2), np.diag([1.0, np.inf])),
    ])
    def test_non_positive_definite_raises(self, c1, c2):
        # check_spd's messages, naming the bad argument
        bad = "c2" if np.array_equal(c1, np.eye(2)) else "c1"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=rf"^{bad} (is not positive definite "
                                                  r"\(eigenvalue -?[01]\)|has a non-finite entry)$"):
                surrogate_minimizer(c1, c2)

    @pytest.mark.parametrize("c1, c2", [
        (np.diag([1.0, 2.0]), 1e308 * np.eye(2)),
        (1e308 * np.eye(2), 1e308 * np.eye(2)),
    ], ids=["overflow", "inf-times-zero"])
    def test_names_the_overflow_of_the_product(self, c1, c2):
        # both are positive definite, but Rᵀ c1 R, R Rᵀ = c2, is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^c2\^\(1/2\) c1 c2\^\(1/2\) overflows float64$"):
                surrogate_minimizer(c1, c2)

    def test_minimizer_factor_rejects_a_c1_that_is_not_positive_definite(self):
        # the solvers hand _minimizer_factor c1 unvalidated
        with pytest.raises(DomainError,
                           match="^surrogate_minimizer requires positive definite c1 and c2$"):
            karcher._minimizer_factor(np.diag([1.0, -1.0]), np.eye(2))

    def test_empty_arguments_rejected(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^expected c1 to be at least 1x1, got shape \(0, 0\)$"):
            surrogate_minimizer(np.zeros((0, 0)), np.zeros((0, 0)))

    def test_factors_c2_once(self, monkeypatch, rng):
        # validation factors c1 and c2; the minimizer reuses the factor of c2
        shapes = []

        def counted(a):
            shapes.append(np.shape(a))
            return real(a)

        real = np.linalg.cholesky
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        surrogate_minimizer(random_spd(rng, 4), random_spd(rng, 4))
        assert shapes == [(1, 4, 4), (1, 4, 4)]

    @pytest.mark.parametrize("p", [1, 4, 10])
    def test_c2_without_cholesky_factor(self, p, monkeypatch, rng):
        # validation accepts c1 and c2 on their eigenvalues and hands the
        # minimizer the spectral factor U D^{1/2} of c2 in place of its Cholesky factor
        pairs = [(random_spd(rng, p), random_spd(rng, p)) for _ in range(5)]
        wants = [surrogate_minimizer(c1, c2) for c1, c2 in pairs]
        refused = []

        def no_factor(a, message):
            refused.append(message)
            raise DomainError(message)

        monkeypatch.setattr(spd_core, "cholesky", no_factor)
        for (c1, c2), want in zip(pairs, wants):
            refused.clear()
            got = surrogate_minimizer(c1, c2)
            assert refused == ["stack has no Cholesky factor"] * 2
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def _geometric_spd(rng, p, cond):
    u = random_orthogonal(p, rng)
    return sym((u * np.geomspace(1.0, cond, p)) @ u.T)


def _mm_like_pairs(rng):
    # c2 = X^{1/2} R X^{1/2} and c1 = X^{-1/2} R X^{-1/2}, the shape of an MM
    # step near an ill-conditioned mean X: c1 and c2 have condition numbers
    # near 1e8, the minimizer is X
    pairs = []
    for p in (2, 4, 6, 10):
        x, r = _geometric_spd(rng, p, 1e8), random_spd(rng, p)
        s, si = sqrt_m(x), inv_sqrt_m(x)
        pairs.append((sym(si @ r @ si), sym(s @ r @ s)))
    return pairs


MINIMIZER_REGIMES = {
    "random": lambda rng: [(random_spd(rng, p), random_spd(rng, p)) for p in (2, 3, 5, 8)],
    "p=1": lambda rng: [(np.array([[a]]), np.array([[b]]))
                        for a, b in rng.uniform(1e-3, 1e3, size=(8, 2))],
    "condition-1e8": _mm_like_pairs,
    # c1 and c2 near 1e4 each, c2^{1/2} c1 c2^{1/2} up to 1e8
    "product-1e8": lambda rng: [
        (_geometric_spd(rng, p, 1e4), _geometric_spd(rng, p, 1e4)) for p in (2, 4, 6, 10)],
}


class TestMinimizerAgreement:
    """The Cholesky form against the two-root form in the oracle."""

    @pytest.mark.parametrize("regime", sorted(MINIMIZER_REGIMES))
    def test_matches_two_root_form(self, regime, rng):
        for c1, c2 in MINIMIZER_REGIMES[regime](rng):
            # Both forms factor c2 and decompose a matrix similar to
            # M = c2^{1/2} c1 c2^{1/2}; to first order they differ by
            # round-off times the largest condition number of c1, c2 and M.
            w = np.linalg.eigvalsh(sym(sqrt_m(c2) @ c1 @ sqrt_m(c2)))
            kappa = max(np.linalg.cond(c1), np.linalg.cond(c2), w[-1] / w[0])
            tol = max(1e-12, np.finfo(float).eps * kappa)
            ref = two_root_minimizer(c1, c2)
            err = np.linalg.norm(surrogate_minimizer(c1, c2) - ref) / np.linalg.norm(ref)
            assert err <= tol, f"{regime} p={len(c1)}: {err:.3g} > {tol:.3g}"


class TestDerivatives:
    def test_objective_gradient_matches_finite_differences(self, rng):
        # p in 1..4: the 1×1 case too, which criterion 8 does not sample
        assert selfcheck.check_gradient_fd(rng, 20, p_range=(1, 5))[-1]

    def test_inverse_inner_derivative(self, rng):
        # d<X^{-1}, A> = -X^{-1} A X^{-1}
        for _ in range(10):
            p = int(rng.integers(1, 5))
            x = random_spd(rng, p, lo=1.0, hi=3.0)
            a = random_sym(rng, p)
            h = random_sym(rng, p)
            h /= np.linalg.norm(h)
            xi = inv_m(x)
            assert fd_gap(lambda m: frob_inner(inv_m(sym(m)), a), -xi @ a @ xi, x, h) <= 1e-5

    def test_quadratic_form_derivative(self, rng):
        # d tr(A X A X) = 2 A X A
        for _ in range(10):
            p = int(rng.integers(1, 5))
            x = random_spd(rng, p, lo=1.0, hi=3.0)
            a = random_sym(rng, p)
            h = random_sym(rng, p)
            h /= np.linalg.norm(h)
            assert fd_gap(lambda m: frob_inner(m, a @ m @ a), 2.0 * a @ x @ a, x, h) <= 1e-5
