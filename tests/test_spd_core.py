import math
import warnings

import numpy as np
import pytest

from spdmean.errors import DimensionMismatch, DomainError
from spdmean.oracle import matrix_fn
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


class TestCheckSymmetric:
    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            check_symmetric(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            check_symmetric(np.ones((2, 3)))

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


class TestCholesky:
    def test_is_numpys_factor(self, rng):
        a = random_spd(rng, 4)
        assert np.array_equal(spd_core.cholesky(a, "unused"), np.linalg.cholesky(a))

    def test_failure_raises_the_callers_message(self):
        with pytest.raises(DomainError, match="^c2 is not positive definite$"):
            spd_core.cholesky(np.diag([1.0, -2.0]), "c2 is not positive definite")


@pytest.mark.parametrize("fn, name", [
    (log_m, "log_m"),
    (sqrt_m, "sqrt_m"),
    (inv_sqrt_m, "inv_sqrt_m"),
    (inv_m, "inv_m"),
    (lambda a: pow_m(a, 0.5), "pow_m"),
])
def test_spd_functions_reject_indefinite(fn, name):
    with pytest.raises(DomainError, match=rf"^{name} requires a positive definite"):
        fn(np.diag([1.0, -2.0]))


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
    **{f"pow_m-t-{t}": lambda t=t: pow_m(np.diag([2.0, 3.0]), t)
       for t in (np.nan, np.inf, 1e308)},
    **{f"geodesic-t-{t}": lambda t=t: geodesic(np.eye(2), np.diag([2.0, 3.0]), t)
       for t in (np.nan, np.inf, 1e308)},
    "exp_m-1000": lambda: exp_m(1000.0 * np.eye(2)),
    "inv_m-subnormal": lambda: inv_m(np.diag([1.0, 1e-320])),
}

# finite matrices whose f(λ) underflows to 0: the SPD-valued result would be singular
_NOT_POSITIVE_ON_SPECTRUM = {
    "pow_m-t--inf": lambda: pow_m(np.diag([2.0, 3.0]), -np.inf),
    "geodesic-t--inf": lambda: geodesic(np.eye(2), np.diag([2.0, 3.0]), -np.inf),
    "exp_m--1000": lambda: exp_m(-1000.0 * np.eye(2)),
}


@pytest.mark.parametrize("call, match", [
    *(pytest.param(lambda fn=fn, v=v: fn(_non_finite_entry(v)), "has a non-finite entry$",
                   id=f"{name}-{v}")
      for v in (np.nan, np.inf) for name, fn in _TAKES_NON_FINITE_ENTRY.items()),
    *(pytest.param(call, "^scalar function not finite on the spectrum$", id=name)
      for name, call in _NOT_FINITE_ON_SPECTRUM.items()),
    *(pytest.param(call, "^scalar function not positive on the spectrum$", id=name)
      for name, call in _NOT_POSITIVE_ON_SPECTRUM.items()),
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
        calls = _count_calls(monkeypatch, "eigh", "check_symmetric")
        geodesic(random_spd(rng, 3), random_spd(rng, 3), 0.3)
        # one eigh gives both roots of x1, one the power of the sandwich
        assert calls == {"eigh": 2, "check_symmetric": 2}


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

    def test_checks_each_point_once(self, rng, monkeypatch):
        calls = _count_calls(monkeypatch, "eigh", "check_symmetric")
        riem_dist(random_spd(rng, 3), random_spd(rng, 3))
        assert calls == {"eigh": 2, "check_symmetric": 2}
