import math
import warnings

import numpy as np
import pytest

from spdmean.errors import DimensionMismatch, DomainError
from spdmean.karcher import (
    Ensemble,
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
from spdmean.oracle import per_matrix_terms, two_root_minimizer
from spdmean import selfcheck
from spdmean.selfcheck import fd_gap, random_ensemble, random_spd, random_sym
from spdmean.solvers import SolverConfig, arithmetic_mean_init, gd_fixed_step_solve, mm_solve
from spdmean.spd_core import check_spd, exp_m, frob_inner, inv_m, inv_sqrt_m, sqrt_m, sym


class TestEnsemble:
    def test_cache_coherence(self, rng):
        e = random_ensemble(rng, 4, 5)
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


_VIEWS = {"objective": objective, "grad_sum": grad_sum,
          "euclidean_gradient": euclidean_gradient, "surrogate_coeffs": surrogate_coeffs}


@pytest.mark.parametrize("view", sorted(_VIEWS))
@pytest.mark.parametrize("point, message", [
    pytest.param([[2.0, 1.5], [0.0, 2.0]], "^point is not symmetric$", id="skewed"),
    pytest.param([[np.nan, 0.0], [0.0, 1.0]], "^point has a non-finite entry$", id="nan"),
])
def test_views_validate_their_point(view, point, message, rng):
    e = random_ensemble(rng, 3, 2)
    with pytest.raises(DomainError, match=message):
        _VIEWS[view](e, np.array(point))


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
        from spdmean.oracle import grid_minimize_1d

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
            frame_grad = _frame_terms(e, np.linalg.cholesky(x))[1]
            want = np.linalg.norm(grad_sum(e, x))
            err = abs(np.linalg.norm(frame_grad) - want) / want
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_mm_gradient_matches_gradient_reduction(self, regime, rng):
        # the MM kernel's ĝ = (c̃2 − c̃1)/2 against GD's −Σᵢ Ûᵢ D(log wᵢ) Ûᵢᵀ
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            g = np.linalg.cholesky(x)
            want = _frame_grad(e, g)[1]
            err = np.linalg.norm(_frame_terms(e, g)[1] - want) / np.linalg.norm(want)
            assert err <= tol, f"{regime} p={e.dim}: {err:.3g} > {tol:.3g}"

    @pytest.mark.parametrize("regime", sorted(AGREEMENT_REGIMES))
    def test_coefficient_difference_is_twice_the_gradient(self, regime, rng):
        # r − 1/r = 2 log w, so c̃1 − c̃2 = −2ĝ; at G = X^{1/2}, ĝ is the
        # per-matrix gradient sum
        for e, x in AGREEMENT_REGIMES[regime](rng):
            tol = _agreement_tol(e, x)
            want = -2.0 * per_matrix_terms(e, x)["grad_sum"]
            _, _, c1, c2 = _frame_terms(e, sqrt_m(x))
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
        g = np.linalg.cholesky(res.mean)
        assert np.linalg.norm(_frame_terms(e, g)[1] - _frame_grad(e, g)[1]) <= 1e-3 * tol


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
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="^surrogate_minimizer requires"):
                surrogate_minimizer(c1, c2)


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
