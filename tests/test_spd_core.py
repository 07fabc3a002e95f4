import math
import warnings

import numpy as np
import pytest

from spdmean.errors import DimensionMismatch, DomainError
from spdmean.bench import random_orthogonal
from spdmean.karcher import surrogate_minimizer
from spdmean.oracle import finite_diff_directional
from spdmean.selfcheck import random_spd, random_sym
from spdmean import spd_core
from spdmean.spd_core import (
    check_spd,
    check_symmetric,
    exp_m,
    frob_inner,
    geodesic,
    inv_m,
    inv_sqrt_m,
    log_m,
    pow_m,
    riem_dist,
    sqrt_m,
    sym,
)

from refs import frozen_check_spd_stack, frozen_scales, frozen_sym, frozen_symmetric, matrix_fn


class TestCheckSymmetric:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            check_symmetric(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^expected matrix to be at least 1x1, got shape \(0, 0\)$"):
            check_symmetric(np.zeros((0, 0)))

    @pytest.mark.parametrize("scale", [1e200, 1e-200, 1e307])
    def test_symmetry_test_at_any_scale(self, scale):
        # the Frobenius norms overflow or underflow at these scales
        skew = np.array([[1.0, 0.5], [0.0, 1.0]]) * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="^matrix is not symmetric$"):
                check_symmetric(skew)
            assert np.array_equal(check_symmetric(sym(skew)), sym(skew))
            assert np.array_equal(check_symmetric(np.zeros((2, 2))), np.zeros((2, 2)))


class TestSym:
    def test_bitwise_unchanged_in_normal_range(self, rng):
        # halving before adding is exact wherever the halves stay normal
        for scale in 10.0 ** rng.uniform(-300, 300, size=200):
            a = rng.standard_normal((2, 4, 4)) * scale
            assert np.array_equal(sym(a), (a + np.swapaxes(a, 1, 2)) / 2.0)

    def test_no_overflow_near_float64_max(self):
        a = np.array([[1.5e308, 1.2e308], [1.7e308, 1.5e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = sym(a)
        assert np.array_equal(s, [[1.5e308, 1.45e308], [1.45e308, 1.5e308]])


class TestCheckSpd:
    def test_accepts_spd(self, rng):
        a = random_spd(rng, 4)
        out = check_spd(a)
        assert np.allclose(out, a)

    def test_rejects_indefinite(self):
        with pytest.raises(DomainError, match="positive definite"):
            check_spd(np.diag([1.0, -2.0]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^expected matrix to be square, got shape \(2, 3\)$"):
            check_spd(np.ones((2, 3)))

    def test_rejects_empty(self):
        with pytest.raises(DimensionMismatch,
                           match=r"^expected matrix to be at least 1x1, got shape \(0, 0\)$"):
            check_spd(np.zeros((0, 0)))

    @pytest.mark.parametrize("fn", [check_spd, check_symmetric])
    def test_rejects_complex(self, fn):
        # refused by dtype, not cast to the real part with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^matrix has a complex entry$"):
                fn(np.array([[1 + 5j]]))

    @pytest.mark.parametrize("fn", [check_spd, check_symmetric])
    @pytest.mark.parametrize("a", [np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "1"]]),
                                   np.array([[1.0, 0.0], [0.0, "2"]], dtype=object)],
                             ids=["bool", "string", "object"])
    def test_rejects_non_numeric(self, fn, a):
        # refused by dtype, not taken as 0 or 1 or parsed
        with pytest.raises(DomainError, match="^matrix has a non-numeric entry$"):
            fn(a)

    def test_relative_floor_survives_scaling(self, rng):
        a = random_spd(rng, 3) * 1e4
        check_spd(a)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (0, 1)])
    def test_rejects_non_finite(self, value, where):
        a = np.eye(2)
        a[where] = value
        with pytest.raises(DomainError, match="non-finite"):
            check_spd(a)


def _eigen_rule(mats, name_of=lambda i: f"matrix {i}"):
    """The SPD rule on the spectra alone, as validation ran before it took a Cholesky factor.

    One stacked eigh and w₀ > POSITIVITY_FLOOR·|w_max|, after the
    non-finite and symmetry tests. Returns the error message and ``None``,
    or ``None`` and the spectral factors Uᵢ D(wᵢ)^{1/2} and their inverses
    D(wᵢ)^{-1/2} Uᵢᵀ.
    """
    mats = np.asarray(mats, dtype=float)
    top = frozen_scales(mats)
    finite = top < np.inf
    mats = np.where(finite[:, None, None], mats, 0.0)
    symmetric = frozen_symmetric(mats, np.where(finite, top, 0.0))[0]
    w, u = np.linalg.eigh(frozen_sym(mats))
    ok = symmetric & (w[:, 0] > spd_core.POSITIVITY_FLOOR * np.abs(w[:, -1]))
    if ok.all():
        return None, (u * np.sqrt(w)[:, None, :], np.swapaxes(u, 1, 2) / np.sqrt(w)[:, :, None])
    i = int(ok.argmin())
    if not finite[i]:
        return f"{name_of(i)} has a non-finite entry", None
    if not symmetric[i]:
        return f"{name_of(i)} is not symmetric", None
    return f"{name_of(i)} is not positive definite (eigenvalue {w[i, 0]:.6g})", None


def _outcome(mats, check=spd_core.check_spd_stack):
    """The error message of ``check`` and ``None``, or ``None`` and its result."""
    try:
        return None, check(mats)
    except DomainError as exc:
        return str(exc), None


def _conditioned(rng, p, kappa, scale):
    # spectrum from 1 down to 1/κ (an indefinite one when κ < 0), times scale
    w = np.geomspace(1.0, 1.0 / abs(kappa), p) * np.sign(kappa) ** np.arange(p)
    u = random_orthogonal(p, rng)
    return sym((u * (w * scale)) @ u.T)


def _skewed(rng, p, ratio, scale):
    """An SPD matrix plus a skew part with ‖A − Aᵀ‖_F ≈ ratio · SYM_TOL · ‖A‖_F."""
    s, k = random_spd(rng, p), rng.standard_normal((p, p))
    k = k - k.T
    t = ratio * spd_core.SYM_TOL * np.linalg.norm(s) / (2.0 * np.linalg.norm(k))
    return (s + t * k) * scale


def _decision_stacks(rng):
    """Stacks around the positivity floor, at per-matrix scales across float64."""
    kappas = [*np.geomspace(1e6, 1e16, 11), *(1e13 * (1 + np.linspace(-0.2, 0.2, 9))), -1e3]
    stacks = []
    for p in (1, 2, 10, 50):
        mats = [_conditioned(rng, p, kappa, 10.0 ** rng.uniform(-300, 300))
                for kappa in kappas]
        mats += [np.eye(p) * -1.0, np.zeros((p, p))]
        stacks += [[m] for m in mats]
        order = rng.permutation(len(mats))
        stacks += [[mats[i] for i in order[j:j + 5]] for j in range(0, len(mats), 5)]
    return stacks


# every real, non-empty error input of TestEnsemble and TestCheckSpd, and the accepted
# inputs at the float64 edges
_EDGE_INPUTS = [
    [[1.0, 0.5], [0.0, 1.0]], [[1.0, 0.0], [0.0, -2.0]], [[1.0, 0.0], [0.0, np.inf]],
    [[np.nan, 0.0], [0.0, 1.0]], [[np.nan, 0.5], [0.0, -1.0]], [[1.0, 0.5], [0.0, -1.0]],
    np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e200, np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e-200,
    np.diag([1.0, -1.0]), np.diag([1.0, 1e-14]), np.diag([1e308, 1.0]), np.diag([1.0, -2.0]),
    np.eye(2) * 1.5e308, np.eye(2) * 1e-300, np.diag([3e-300, 1e-300]),
    *(np.where(np.arange(4).reshape(2, 2) == k, v, np.eye(2))
      for v in (np.nan, np.inf, -np.inf) for k in (0, 1)),
]


def _edge_stacks():
    return ([[bad] for bad in _EDGE_INPUTS] + [[np.eye(2), bad] for bad in _EDGE_INPUTS]
            + [[np.eye(2)] * 9 + [np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e-200],
               [np.eye(2), np.diag([1.0, -1.0]), np.diag([np.nan, 1.0])]])


def _no_cholesky(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    monkeypatch.setattr(np.linalg, "cholesky", fail)


class TestCheckSpdStack:
    """The Cholesky-first validation against the rule on the spectra alone."""

    @pytest.mark.parametrize("forced", [False, True], ids=["cholesky", "no-cholesky"])
    def test_same_decisions_as_the_eigenvalue_rule(self, forced, monkeypatch, rng):
        stacks = _decision_stacks(rng) + _edge_stacks()
        if forced:
            _no_cholesky(monkeypatch)
        accepted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for mats in stacks:
                message, want = _eigen_rule(mats)
                got_message, got = _outcome(mats)
                assert got_message == message
                if got is not None:
                    accepted += 1
                    out, factors, inv_factors = got
                    assert np.array_equal(out, sym(np.asarray(mats)))
                    if forced:  # the spectral factors, bit for bit
                        assert np.array_equal(factors, want[0])
                        assert np.array_equal(inv_factors, want[1])
                    else:
                        assert np.array_equal(factors, np.tril(factors))
                    # F Fᵀ = A to round-off, at each matrix's own scale
                    gap = frozen_scales(factors @ factors.swapaxes(1, 2) - out)
                    assert (gap <= 10 * out.shape[-1] * np.finfo(float).eps
                            * frozen_scales(out)).all()
        assert 0 < accepted < len(stacks)

    @pytest.mark.parametrize("forced", [False, True], ids=["cholesky", "no-cholesky"])
    def test_same_as_the_pass_before_its_rewrite(self, forced, monkeypatch, rng):
        # messages, and the symmetrized stack and factors byte for byte
        stacks = _decision_stacks(rng) + _edge_stacks()
        for p in (1, 10, 100):
            stacks += [[random_spd(rng, p) * 10.0 ** rng.uniform(-300, 300) for _ in range(3)],
                       [random_spd(rng, p) for _ in range(5)]]
        # skew parts on either side of the symmetry tolerance, at extreme and plain scales
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            stacks.append([_skewed(rng, 4, ratio, scale)
                           for ratio in (0.5, 0.9, 0.99, 1.01, 1.1, 1.3, 2.0)])
            stacks += [[m] for m in stacks[-1]]
        if forced:
            _no_cholesky(monkeypatch)
        accepted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for mats in stacks:
                message, want = _outcome(mats, frozen_check_spd_stack)
                got_message, got = _outcome(mats)
                assert got_message == message
                if got is not None:
                    accepted += 1
                    for a, b in zip(got, want):
                        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert 0 < accepted < len(stacks)

    def test_cholesky_factor_and_its_inverse(self, rng):
        mats = np.array([random_spd(rng, 5) * 10.0 ** k for k in (-200, 0, 200)])
        out, factors, inv_factors = spd_core.check_spd_stack(mats)
        assert np.array_equal(factors, np.linalg.cholesky(out))
        assert np.array_equal(inv_factors, np.linalg.inv(factors))


B = spd_core.TRI_BLOCK


def _factors(rng, p, k=4):
    """Cholesky factors of k random SPD matrices, condition up to 1e6."""
    mats = [random_spd(rng, p, lo=10.0 ** -e, hi=1.0) for e in np.linspace(0, 6, k)]
    return np.linalg.cholesky(np.array(mats))


class TestTriInv:
    @pytest.mark.parametrize("p", [1, 2, 5, B])
    def test_small_stacks_are_numpys_inverse(self, rng, p):
        l = _factors(rng, p)
        assert np.array_equal(spd_core._tri_inv(l), np.linalg.inv(l))

    # a partial last block of width 1, 3, 4 or B − 1, or none; one matrix and a stack
    @pytest.mark.parametrize("p", [B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 2 * B + 3, 7 * B, 100])
    def test_blocked_inverse_is_triangular_and_accurate(self, rng, p):
        eps = np.finfo(float).eps
        for k in (1, 50):
            l = _factors(rng, p, k)
            x = spd_core._tri_inv(l)
            assert not np.triu(x, 1).any()
            for li, xi, lu in zip(l, x, np.linalg.inv(l)):
                bound = 10 * p * eps * np.linalg.norm(li) * np.linalg.norm(xi)
                assert np.linalg.norm(xi @ li - np.eye(p)) <= bound
                assert np.linalg.norm(xi - lu) <= bound * np.linalg.norm(xi)

    def test_extreme_scales(self, rng):
        for p in (40, 100):
            mats = np.array([random_spd(rng, p) * 10.0 ** k for k in (-200, 0, 200)])
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                _, factors, inv_factors = spd_core.check_spd_stack(mats)
            assert np.isfinite(inv_factors).all()
            for li, xi in zip(factors, inv_factors):
                assert np.linalg.norm(xi @ li - np.eye(p)) <= 1e-12

    def test_diagonal_blocks_are_views(self, rng):
        a = rng.standard_normal((3, 2 * B + 3, 2 * B + 3))
        blocks = spd_core._diag_blocks(a, B, 2)
        assert blocks.shape == (2, 3, B, B) and np.shares_memory(blocks, a)
        for j in range(2):
            assert np.array_equal(blocks[j], a[:, j * B:(j + 1) * B, j * B:(j + 1) * B])

    def test_validation_takes_no_lu_inverse_of_a_large_factor(self, monkeypatch, rng):
        # the diagonal blocks are inverted by forward substitution, not by LU
        sizes = []

        def counted(a):
            sizes.append(a.shape[-1])
            return numpy_inv(a)

        numpy_inv = np.linalg.inv
        monkeypatch.setattr(np.linalg, "inv", counted)
        mats = np.array([random_spd(rng, 2 * B + 3) for _ in range(3)])
        spd_core.check_spd_stack(mats)
        check_spd(mats[0])
        assert sizes == []

    @pytest.mark.parametrize("b", [1, 2, 7, B])
    def test_lower_inv_is_forward_substitution(self, rng, b):
        # a (2, 3, b, b) stack: each inverse is exactly lower triangular,
        # with the reciprocal of the diagonal on its diagonal
        l = _factors(rng, b, 6).reshape(2, 3, b, b)
        x = np.zeros_like(l)
        spd_core._lower_inv(l, x)
        assert not np.triu(x, 1).any()
        assert np.array_equal(np.diagonal(x, axis1=-2, axis2=-1),
                              1.0 / np.diagonal(l, axis1=-2, axis2=-1))
        assert np.abs(x @ l - np.eye(b)).max() <= 1e-9


class TestCholesky:
    def test_is_numpys_factor(self, rng):
        a = random_spd(rng, 4)
        assert np.array_equal(spd_core.cholesky(a, "unused"), np.linalg.cholesky(a))

    def test_failure_raises_the_callers_message(self):
        with pytest.raises(DomainError, match="^c2 is not positive definite$"):
            spd_core.cholesky(np.diag([1.0, -2.0]), "c2 is not positive definite")


# what check_spd's message calls the refused argument, where it is not "matrix"
_REFUSED_AS = {"surrogate_minimizer-c1": "c1", "surrogate_minimizer-c2": "c2",
               "finite_diff_directional": "perturbed matrix"}


@pytest.mark.parametrize("fn, name", [
    (log_m, "log_m"),
    (sqrt_m, "sqrt_m"),
    (inv_sqrt_m, "inv_sqrt_m"),
    (inv_m, "inv_m"),
    (lambda a: pow_m(a, 0.5), "pow_m"),
    (lambda a: surrogate_minimizer(a, np.eye(2)), "surrogate_minimizer-c1"),
    (lambda a: surrogate_minimizer(np.eye(2), a), "surrogate_minimizer-c2"),
    (lambda a: finite_diff_directional(np.trace, a, np.zeros((2, 2))),
     "finite_diff_directional"),
])
def test_spd_functions_reject_indefinite(fn, name):
    # one rule for every SPD argument: check_spd's, whose relative floor
    # also refuses a positive eigenvalue below 1e-13 times the largest
    what = _REFUSED_AS.get(name, "matrix")
    for w0, shown in ((-2.0, "-2"), (1e-14, "1e-14")):
        with pytest.raises(DomainError,
                           match=rf"^{what} is not positive definite \(eigenvalue {shown}\)$"):
            fn(np.diag([1.0, w0]))


@pytest.mark.parametrize("fn", [
    log_m, sqrt_m, inv_sqrt_m, inv_m, pytest.param(lambda a: pow_m(a, 0.3), id="pow_m")])
def test_spd_functions_check_and_decompose_once(fn, rng, monkeypatch):
    calls = _count_calls(monkeypatch, "eigh", "check_symmetric", "cholesky")
    fn(random_spd(rng, 3))
    # validation factors the argument and needs no eigensolver; the map needs one
    assert calls == {"eigh": 1, "check_symmetric": 0, "cholesky": 1}


def _non_finite_entry(value):
    a = np.eye(2)
    a[0, 0] = value
    return a


_TAKES_NON_FINITE_ENTRY = {
    "log_m": log_m, "sqrt_m": sqrt_m, "inv_sqrt_m": inv_sqrt_m, "inv_m": inv_m,
    "pow_m": lambda a: pow_m(a, 0.5), "exp_m": exp_m,
    "geodesic-x1": lambda a: geodesic(a, np.eye(2), 0.5),
    "geodesic-x2": lambda a: geodesic(np.eye(2), a, 0.5),
    "riem_dist-x1": lambda a: riem_dist(a, np.eye(2)),
    "riem_dist-x2": lambda a: riem_dist(np.eye(2), a),
}

# finite matrices whose f(λ), or its reciprocal, is not finite in float64
_NOT_FINITE_ON_SPECTRUM = {
    "pow_m-t-1e+308": lambda: pow_m(np.diag([2.0, 3.0]), 1e308),
    "geodesic-t-1e+308": lambda: geodesic(np.eye(2), np.diag([2.0, 3.0]), 1e308),
    "exp_m-1000": lambda: exp_m(1000.0 * np.eye(2)),
    # passes validation (condition 1), but 1/1e-310 overflows
    "inv_m-subnormal": lambda: inv_m(1e-310 * np.eye(2)),
}

# finite matrices whose f(λ) underflows to 0: the SPD-valued result would be singular
_NOT_POSITIVE_ON_SPECTRUM = {
    "exp_m--1000": lambda: exp_m(-1000.0 * np.eye(2)),
}

# an exponent t that is not a finite real number, refused before the spectrum is read
_NOT_A_FINITE_T = {
    f"{name}-t-{label}": (name, lambda call=call, t=t: call(t))
    for name, call in (("pow_m", lambda t: pow_m(np.diag([2.0, 3.0]), t)),
                       ("geodesic", lambda t: geodesic(np.eye(2), np.diag([2.0, 3.0]), t)))
    for label, t in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf), ("x", "x"),
                     ("None", None), ("10**400", 10**400), ("True", True), ("1j", 1j))
}


@pytest.mark.parametrize("call, match", [
    *(pytest.param(lambda fn=fn, v=v: fn(_non_finite_entry(v)), "has a non-finite entry$",
                   id=f"{name}-{v}")
      for v in (np.nan, np.inf) for name, fn in _TAKES_NON_FINITE_ENTRY.items()),
    *(pytest.param(call, "^scalar function not finite on the spectrum$", id=name)
      for name, call in _NOT_FINITE_ON_SPECTRUM.items()),
    *(pytest.param(call, "^scalar function not positive on the spectrum$", id=name)
      for name, call in _NOT_POSITIVE_ON_SPECTRUM.items()),
    *(pytest.param(call, f"^{fn} requires t to be a finite real number, got ", id=name)
      for name, (fn, call) in _NOT_A_FINITE_T.items()),
])
def test_spd_functions_reject_non_finite(call, match):
    # a NaN spectrum fails no `<= 0` test: the entries and f(λ) are checked
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(DomainError, match=match):
            call()


class TestMatrixFn:
    def test_log_of_identity_is_zero(self):
        assert np.allclose(matrix_fn(np.eye(3), math.log), 0.0, atol=1e-14)

    def test_sqrt_of_diagonal(self):
        out = matrix_fn(np.diag([4.0, 9.0]), math.sqrt)
        assert np.allclose(out, np.diag([2.0, 3.0]))

    def test_exp_log_round_trip(self):
        a = np.array([[2.0, 1.0], [1.0, 2.0]])
        out = matrix_fn(matrix_fn(a, math.log), math.exp)
        assert np.allclose(out, a, atol=1e-12)

    def test_domain_error(self):
        with pytest.raises(DomainError):
            matrix_fn(np.diag([1.0, 4.0]) - 2 * np.eye(2), math.log)

    def test_commutes_with_input(self, rng):
        a = random_spd(rng, 5)
        f = matrix_fn(a, math.exp)
        comm = np.linalg.norm(a @ f - f @ a)
        assert comm <= 1e-8 * np.linalg.norm(a) * np.linalg.norm(f)

    def test_convenience_round_trips(self, rng):
        for p in (2, 4, 8):
            a = random_spd(rng, p)
            na = np.linalg.norm(a)
            assert np.linalg.norm(sqrt_m(a) @ sqrt_m(a) - a) <= 1e-10 * na
            assert np.linalg.norm(inv_sqrt_m(a) @ sqrt_m(a) - np.eye(p)) <= 1e-10
            assert np.linalg.norm(exp_m(log_m(a)) - a) <= 1e-10 * na
            assert np.linalg.norm(inv_m(a) @ a - np.eye(p)) <= 1e-10
            assert np.allclose(pow_m(a, 2.0), a @ a)

    def test_exp_log_large_condition(self, rng):
        # condition number up to 1e6
        from spdmean.bench import random_orthogonal

        u = random_orthogonal(6, rng)
        w = 10.0 ** rng.uniform(-3, 3, size=6)
        a = sym((u * w) @ u.T)
        assert np.linalg.norm(exp_m(log_m(a)) - a) <= 1e-10 * np.linalg.norm(a)


class TestFrobInner:
    def test_identity(self):
        assert frob_inner(np.eye(2), np.eye(2)) == 2.0

    def test_zero(self, rng):
        a = random_sym(rng, 3)
        assert frob_inner(a, np.zeros((3, 3))) == 0.0

    def test_hand_computed(self):
        a = np.array([[1.0, 2.0], [2.0, 3.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert frob_inner(a, b) == 4.0

    def test_equals_trace_product(self, rng):
        a, b = random_sym(rng, 4), random_sym(rng, 4)
        tr = float(np.trace(a @ b))
        assert abs(frob_inner(a, b) - tr) <= 1e-12 * max(1.0, abs(tr))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            frob_inner(np.eye(2), np.eye(3))

    def test_positive_on_diagonal(self, rng):
        a = random_sym(rng, 3)
        assert frob_inner(a, a) >= 0.0

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_rejects_complex(self, which):
        # refused by dtype, not cast to the real part with a ComplexWarning
        args = {"a": np.eye(2), "b": np.eye(2), which: 1j * np.eye(2)}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=f"^{which} has a complex entry$"):
                frob_inner(**args)


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(spd_core, name, counted(name, getattr(spd_core, name)))
    return calls


class TestGeodesic:
    def test_from_identity_is_power(self, rng):
        a = random_spd(rng, 3)
        assert np.allclose(geodesic(np.eye(3), a, 0.3), pow_m(a, 0.3), atol=1e-12)

    def test_constant(self, rng):
        a = random_spd(rng, 3)
        assert np.allclose(geodesic(a, a, 0.37), a, atol=1e-12)

    def test_commuting_diagonal_midpoint(self):
        out = geodesic(np.eye(2), np.diag([4.0, 9.0]), 0.5)
        assert np.allclose(out, np.diag([2.0, 3.0]), atol=1e-12)

    def test_endpoints(self, rng):
        x1, x2 = random_spd(rng, 4), random_spd(rng, 4)
        assert np.linalg.norm(geodesic(x1, x2, 0.0) - x1) <= 1e-12 * np.linalg.norm(x1)
        assert np.linalg.norm(geodesic(x1, x2, 1.0) - x2) <= 1e-12 * np.linalg.norm(x2)

    def test_result_is_spd(self, rng):
        x1, x2 = random_spd(rng, 4), random_spd(rng, 4)
        check_spd(geodesic(x1, x2, 0.6))

    def test_decomposes_and_checks_each_point_once(self, rng, monkeypatch):
        calls = _count_calls(monkeypatch, "eigh", "check_symmetric", "cholesky")
        geodesic(random_spd(rng, 3), random_spd(rng, 3), 0.3)
        # validation factors each point once and needs no eigensolver; the
        # SVD of W gives the power
        assert calls == {"eigh": 0, "check_symmetric": 0, "cholesky": 2}

    def test_keeps_the_range_of_w(self):
        # W = F₁⁻¹F₂ ≈ 1e-310 is finite, W Wᵀ would underflow to 0
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            mid = geodesic([[1e300]], [[1e-320]], 0.5)
            near = geodesic([[1e300]], [[1e-320]], 0.9)
        want = math.sqrt(1e300 * 1e-320)  # x2 as stored, a subnormal
        assert abs(mid[0, 0] - want) <= 1e-12 * want
        want = 1e300**0.1 * 1e-320**0.9
        assert abs(near[0, 0] - want) <= 1e-12 * want

    def test_matches_sandwich_formula(self, rng):
        for _ in range(50):
            p = int(rng.integers(1, 8))
            x, y = random_spd(rng, p, lo=0.1, hi=10.0), random_spd(rng, p, lo=0.1, hi=10.0)
            t = float(rng.uniform(-1.0, 2.0))
            s, si = sqrt_m(x), inv_sqrt_m(x)
            want = sym(s @ pow_m(sym(si @ y @ si), t) @ s)
            got = geodesic(x, y, t)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


class TestRiemDist:
    def test_self_distance(self, rng):
        a = random_spd(rng, 3)
        assert riem_dist(a, a) <= 1e-10

    def test_scaled_identity(self):
        assert abs(riem_dist(np.eye(2), math.e * np.eye(2)) - math.sqrt(2)) <= 1e-12

    def test_diagonal_closed_form(self):
        want = math.sqrt(math.log(4.0) ** 2 + math.log(9.0) ** 2)
        assert abs(riem_dist(np.eye(2), np.diag([4.0, 9.0])) - want) <= 1e-12

    def test_symmetric_in_arguments(self, rng):
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        assert abs(riem_dist(x, y) - riem_dist(y, x)) <= 1e-10

    def test_congruence_invariance(self, rng):
        for _ in range(10):
            p = int(rng.integers(2, 6))
            x, y = random_spd(rng, p), random_spd(rng, p)
            m = rng.standard_normal((p, p))
            d1 = riem_dist(x, y)
            d2 = riem_dist(sym(m @ x @ m.T), sym(m @ y @ m.T))
            assert abs(d1 - d2) <= 1e-8

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            riem_dist(np.eye(2), np.eye(3))

    def test_matches_sandwich_formula(self, rng):
        for _ in range(50):
            p = int(rng.integers(1, 8))
            x, y = random_spd(rng, p, lo=0.1, hi=10.0), random_spd(rng, p, lo=0.1, hi=10.0)
            si = inv_sqrt_m(x)
            want = np.linalg.norm(np.log(np.linalg.eigvalsh(sym(si @ y @ si))))
            assert abs(riem_dist(x, y) - want) <= 1e-13 * want

    def test_ratio_beyond_float64_max(self):
        # x1^{-1/2} x2 x1^{-1/2} = 1e600 I overflows; W = F₁⁻¹F₂ = 1e300 I does not
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            d = riem_dist(1e-300 * np.eye(2), 1e300 * np.eye(2))
        want = 2.0 * math.sqrt(2.0) * 300.0 * math.log(10.0)
        assert abs(d - want) <= 1e-12 * want

    def test_factor_ratio_that_overflows_raises(self):
        # x1 is subnormal: F₁⁻¹ = 1e160, so W = 1e310 is not finite
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError,
                               match=r"^x1\^\(-1/2\) x2 x1\^\(-1/2\) overflows float64$"):
                riem_dist(np.array([[1e-320]]), np.array([[1e300]]))

    def test_checks_each_point_once(self, rng, monkeypatch):
        calls = _count_calls(monkeypatch, "eigh", "check_symmetric", "cholesky")
        riem_dist(random_spd(rng, 3), random_spd(rng, 3))
        # the distance reads the singular values of W, not an eigensolver
        assert calls == {"eigh": 0, "check_symmetric": 0, "cholesky": 2}
