import dataclasses
import math
import re
import warnings
from collections import UserList

import numpy as np
import pytest

import spdmean
from spdmean.errors import DimensionMismatch, DomainError, SpdMeanError
from spdmean.bench import ExperimentSpec, SolverSpec, SpectrumSpec, random_orthogonal
from spdmean.karcher import (Ensemble, SurrogateCoeffs, g1_scalar, g2_scalar, objective,
                             surrogate_coeffs, surrogate_minimizer, surrogate_value)
from spdmean.oracle import finite_diff_directional, scalar_karcher_oracle, two_matrix_oracle
from spdmean.selfcheck import commuting_ensemble, random_ensemble, random_spd, random_sym
from spdmean.solvers import SolverConfig, mm_solve
from spdmean import karcher, spd_core
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

# w₀/w_max = 1.00031e-13: just above the positivity floor
A2 = np.array([[0.5622088186448961, 0.4961149694201564],
               [0.4961149694201564, 0.43779118135520406]])


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
    def test_rejects_a_list_nested_deeper_than_numpy_reads(self, fn):
        # a 2 × 2 × 1 × … × 1 list, 72 deep: not ragged, but with more dimensions
        # than numpy's arrays can have
        deep = 1.0
        for _ in range(70):
            deep = [deep]
        with pytest.raises(DimensionMismatch, match="^matrix is nested deeper than numpy's "
                                                    "maximum number of dimensions$"):
            fn([[deep, deep], [deep, deep]])

    @pytest.mark.parametrize("fn", [check_spd, check_symmetric])
    def test_rejects_complex(self, fn):
        # refused by dtype, not cast to the real part with a ComplexWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^matrix has a complex entry$"):
                fn(np.array([[1 + 5j]]))

    @pytest.mark.parametrize("fn", [check_spd, check_symmetric])
    @pytest.mark.parametrize("a", [np.eye(2, dtype=bool), np.array([["1", "0"], ["0", "1"]]),
                                   np.array([[1.0, 0.0], [0.0, "2"]], dtype=object),
                                   [[2, True], [True, 2]], ((2.0, np.True_), (np.True_, 2.0)),
                                   [np.array([2.0, 1.0]), np.array([True, True])],
                                   UserList([[2, True], [True, 2]]), [[10**400]],
                                   np.array([[np.nan]], dtype=object),
                                   np.array([[np.inf]], dtype=object)],
                             ids=["bool", "string", "object", "bool-in-list",
                                  "numpy-bool-in-tuple", "bool-row-in-list", "bool-in-userlist",
                                  "int-beyond-float64", "nan-in-object", "inf-in-object"])
    def test_rejects_non_numeric(self, fn, a):
        # refused by dtype or entry, not taken as 0 or 1 or parsed; numpy reads
        # the sequences as the number matrix [[2, 1], [1, 2]], so they are walked
        with pytest.raises(DomainError, match="^matrix has a non-numeric entry$"):
            fn(a)

    @pytest.mark.parametrize("fn", [check_spd, check_symmetric])
    @pytest.mark.parametrize("a, want", [
        ([[10**20]], [[1e20]]),
        ([[2**64, 1], [1, 2**64]], [[2.0**64, 1.0], [1.0, 2.0**64]]),
        (np.array([[2, 0], [0, np.float32(0.5)]], dtype=object), [[2.0, 0.0], [0.0, 0.5]]),
    ], ids=["int-beyond-uint64", "ints-beyond-uint64-and-small", "object-of-numbers"])
    def test_reads_an_object_array_of_real_numbers_as_floats(self, fn, a, want):
        # numpy reads an int beyond uint64 as an object: each entry is a real number
        assert np.array_equal(fn(a), want)

    @pytest.mark.skipif(np.finfo(np.longdouble).max <= np.finfo(float).max,
                        reason="the long double is float64 on this platform")
    @pytest.mark.parametrize("call, message", [
        (check_spd, "matrix has a non-numeric entry"),
        (lambda m: frob_inner(m, m), "a has a non-numeric entry"),
        (lambda m: Ensemble.from_matrices(m[None]), "matrix 0 has a non-numeric entry"),
    ], ids=["check_spd", "frob_inner", "from_matrices"])
    def test_rejects_a_wide_float_beyond_float64(self, call, message):
        # held to the object-array rule, not cast to inf with an overflow warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError) as info:
                call(np.array([[np.longdouble("1e400"), 0], [0, 1]]))
        assert str(info.value) == message

    def test_reads_a_wide_float_within_float64_as_float64(self):
        assert np.array_equal(check_spd(np.diag(np.array([2, 0.5], dtype=np.longdouble))),
                              np.diag([2.0, 0.5]))

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
    k = np.frexp(top)[1]
    w, u = np.linalg.eigh(np.ldexp(frozen_sym(mats), -k[:, None, None]))
    w = np.ldexp(w, k[:, None])
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
    # equal to their transpose, so not measured: a −0.0/+0.0 pair, whose symmetrized pair is
    # +0.0, symmetric ±∞ pairs, refused as non-finite, and scales 1e±300
    [[2.0, -0.0], [0.0, 1.0]], [[1.0, np.inf], [np.inf, 1.0]], [[1.0, -np.inf], [-np.inf, 1.0]],
    np.array([[2.0, 1.0], [1.0, 3.0]]) * 1e300, np.array([[2.0, 1.0], [1.0, 3.0]]) * 1e-300,
    # within SYM_TOL of symmetric, so measured; next to I they make a mixed stack
    *(np.array([[2.0, 1.0], [1.0 + 2.0**-44, 3.0]]) * s for s in (1e-300, 1.0, 1e300)),
]


def _edge_stacks():
    return ([[bad] for bad in _EDGE_INPUTS] + [[np.eye(2), bad] for bad in _EDGE_INPUTS]
            + [[np.eye(2)] * 9 + [np.array([[1.0, 0.5], [0.0, 1.0]]) * 1e-200],
               [np.eye(2), np.diag([1.0, -1.0]), np.diag([np.nan, 1.0])]])


def _no_cholesky(monkeypatch):
    def fail(a):
        raise np.linalg.LinAlgError("Matrix is not positive definite")
    monkeypatch.setattr(np.linalg, "cholesky", fail)


def _assert_cholesky_pair(a, l, x):
    """L and X = L⁻¹ of a stack A = L Lᵀ: both exactly lower triangular, with max|L Lᵀ − A| within
    10·p·ε of max|A|, and max|X L − I| within 10·p·ε of p·max|X|·max|L|, each matrix at its own
    scale; the scales are maxima, so none overflows."""
    p, eps = a.shape[-1], np.finfo(float).eps
    assert not np.triu(l, 1).any() and not np.triu(x, 1).any()
    assert (frozen_scales(l @ l.swapaxes(1, 2) - a) <= 10 * p * eps * frozen_scales(a)).all()
    assert (frozen_scales(x @ l - np.eye(p))
            <= 10 * p * eps * p * frozen_scales(x) * frozen_scales(l)).all()


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
        # messages, and the symmetrized stack and factors byte for byte; at p ≤ TRI_BLOCK the
        # Cholesky factors come from one bordered factorization, and are checked to round-off
        stacks = _decision_stacks(rng) + _edge_stacks()
        for p in (1, 10, 100):
            stacks += [[random_spd(rng, p) * 10.0 ** rng.uniform(-300, 300) for _ in range(3)],
                       [random_spd(rng, p) for _ in range(5)]]
        # skew parts on either side of the symmetry tolerance, at extreme and plain scales
        for scale in (1e-300, 1e-150, 1.0, 1e150, 1e300):
            stacks.append([_skewed(rng, 4, ratio, scale)
                           for ratio in (0.5, 0.9, 0.99, 1.01, 1.1, 1.3, 2.0)])
            stacks += [[m] for m in stacks[-1]]
        # exactly symmetric matrices next to near-symmetric ones: the stack is measured whole
        for scale in (1e-300, 1.0, 1e300):
            stacks.append([random_spd(rng, 4) * scale, _skewed(rng, 4, 0.5, scale),
                           random_spd(rng, 4) * scale, _skewed(rng, 4, 2.0, scale)])
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
                    bordered = not forced and got[0].shape[-1] <= spd_core.TRI_BLOCK
                    for a, b in zip(got[:1] if bordered else got, want):
                        assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
                    if bordered:
                        _assert_cholesky_pair(*got)
        assert 0 < accepted < len(stacks)

    def test_an_exact_stack_gets_what_the_measured_test_gives_it(self):
        # a matrix a little off symmetric sends the whole stack through the measured test, so
        # the rest of that stack gets what the measured test gives it; the subnormal A2 near
        # the floor is here, not in _EDGE_INPUTS, as the frozen pass refused it
        stacks = [[np.ldexp(A2, -1060)], [np.ldexp(A2, -1045), A2], [A2 * 1e300, A2 * 1e-300],
                  [np.array([[2.0, -0.0], [0.0, 1.0]])], [np.zeros((2, 2)), -np.eye(2)],
                  [np.array([[1.0, np.inf], [np.inf, 1.0]]), np.eye(2)]]
        off = np.array([[1.0, 2.0**-44], [0.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mats in stacks:
                exact = np.array(mats)
                measured = np.concatenate([exact, off[None]])
                for a, b in zip(spd_core._symmetrized(exact), spd_core._symmetrized(measured)):
                    assert a.tobytes() == b[:-1].tobytes()
                (message, got), (want_message, want) = _outcome(exact), _outcome(measured)
                assert message == want_message
                if got is not None:
                    for a, b in zip(got, want):
                        assert a.tobytes() == b[:-1].tobytes()

    def test_an_exact_stack_takes_one_squared_norm(self, monkeypatch, rng):
        # the clear bound's; a stack a little off symmetric takes two more, for its test
        sizes = []

        def counted(mats):
            sizes.append(len(mats))
            return real(mats)

        real = spd_core._sq_norms
        monkeypatch.setattr(spd_core, "_sq_norms", counted)
        for mats in ([random_spd(rng, 4) for _ in range(3)],
                     [random_spd(rng, 10) for _ in range(10)],
                     [random_spd(rng, 10) * 1e300, random_spd(rng, 10) * 1e-300],
                     [random_spd(rng, spd_core.TRI_BLOCK + 1)]):
            exact = np.array(mats)
            skew = exact.copy()
            skew[:, 0, 1] *= 1 + 2.0**-44
            for stack, want in ((exact, [len(mats)]), (skew, [len(mats)] * 3)):
                sizes.clear()
                assert _outcome(stack)[0] is None
                assert sizes == want
            sizes.clear()
            Ensemble.from_matrices(exact)
            check_spd(exact[0])
            assert sizes == [len(mats), 1]

    def test_a_measured_stack_is_read_at_its_unit_scale_alone(self, monkeypatch, rng):
        # one rule at every scale: a stack a little off symmetric is measured on _unit of it,
        # at scale 1 too, and an exactly symmetric one is not measured
        calls = []

        def counted(mats, top=None):
            calls.append(len(mats))
            return real(mats, top)

        real = spd_core._unit
        monkeypatch.setattr(spd_core, "_unit", counted)
        exact = np.array([random_spd(rng, 4) for _ in range(3)])
        skew = exact.copy()
        skew[:, 0, 1] *= 1 + 2.0**-44
        for scale in (1.0, 1e-300, 1e300):
            for stack, want in ((exact, []), (skew, [3])):
                calls.clear()
                assert spd_core._symmetrized(stack * scale)[2].all()
                assert calls == want

    @pytest.mark.parametrize("p", [3, spd_core.TRI_BLOCK + 4])
    def test_an_overflowing_inverse_factor_takes_the_spectral_factors(self, monkeypatch, p):
        # ‖L⁻¹‖_F² overflows: a LAPACK that tests its pivots for NaN refuses the bordered stack
        # and OpenBLAS does not, so the stack takes the factors of a refused factorization,
        # at every p; it is accepted, as before
        mats = [random_spd(np.random.default_rng(3), p) * 1e-320]
        np.linalg.cholesky(np.array(mats))  # it has a Cholesky factor
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spd_core.check_spd_stack(mats)
            _no_cholesky(monkeypatch)
            want = spd_core.check_spd_stack(mats)
        for a, b in zip(got, want):
            assert (a.shape, a.dtype, a.tobytes()) == (b.shape, b.dtype, b.tobytes())
        assert np.triu(got[1], 1).any()

    def test_symmetry_decision_is_the_same_at_every_power_of_two_scale(self):
        # the pass before its rewrite divided wide-range matrices by their max |entry|, so a
        # matrix on the tolerance could be refused at scale 1 and accepted at 2^±600
        scales = range(-1000, 1001, 25)
        a3 = np.array([[7.709473369764309, 0.7867725711308785, -0.8445594253466813],
                       [0.786772571128158, 6.0554757504890375, -1.2131371673532305],
                       [-0.8445594253394708, -1.2131371673572677, 7.047521900120623]])
        for k in scales:
            with pytest.raises(DomainError, match="^matrix 0 is not symmetric$"):
                Ensemble.from_matrices([np.ldexp(a3, k)])

        def accepted(a):
            return _outcome([a])[0] is None

        rng = np.random.default_rng(0)
        for _ in range(20):
            g, h = rng.standard_normal((2, 3, 3))
            s, skew = g @ g.T + 3.0 * np.eye(3), h - h.T
            lo, hi = 0.0, 1e-10  # bisect t onto the tolerance of s + t·skew
            for _ in range(60):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if accepted(s + mid * skew) else (lo, mid)
            for t, want in ((lo, True), (hi, False)):
                a = s + t * skew
                assert [accepted(np.ldexp(a, k)) for k in scales] == [want] * len(scales)

    def test_positivity_decision_is_the_same_at_every_power_of_two_scale(self):
        # the eigenvalues were read at each matrix's own scale, so a matrix near the floor
        # could be refused at some 2^k and accepted at others
        scales = range(-1000, 1001, 50)
        for k in scales:
            check_spd(np.ldexp(A2, k))
            Ensemble.from_matrices([np.ldexp(A2, k)])

        rng = np.random.default_rng(1)
        for _ in range(40):
            p, kappa = int(rng.integers(2, 8)), 1e13 * (1 + rng.uniform(-1e-3, 1e-3))
            w, u = np.geomspace(1.0, 1.0 / kappa, p), random_orthogonal(p, rng)
            a = sym((u * w) @ u.T)
            assert len({_outcome([np.ldexp(a, k)])[0] is None for k in scales}) == 1

        # the refusal names the eigenvalue at the matrix's own scale
        for k in (-900, 900):
            with pytest.raises(DomainError, match=re.escape(
                    f"matrix is not positive definite (eigenvalue {np.ldexp(-2.0, k):.6g})")):
                check_spd(np.ldexp(np.diag([1.0, -2.0]), k))

    def test_every_scale_ends_in_finite_factors_or_a_refusal_without_a_warning(self):
        # the spectral factors were scaled back as sqrt(2^k w), which underflows to 0 for a
        # subnormal matrix near the floor, and the inverse factor then divided by it
        rng = np.random.default_rng(1)
        mats = [A2]
        for _ in range(20):
            p, kappa = int(rng.integers(2, 8)), 1e13 * (1 + rng.uniform(-1e-3, 1e-3))
            w, u = np.geomspace(1.0, 1.0 / kappa, p), random_orthogonal(p, rng)
            mats.append(sym((u * w) @ u.T))
        accepted = 0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for m in (np.ldexp(a, k) for a in mats for k in range(-1074, 1024, 7)):
                try:
                    x, f, f_inv = spd_core._check_spd_factor(m)  # check_spd returns its x
                except DomainError:
                    with pytest.raises(DomainError):
                        Ensemble.from_matrices([m])
                    continue
                e = Ensemble.from_matrices([m])
                assert np.array_equal(e.mats[0], x) and np.array_equal(e.inv_factors[0], f_inv)
                assert np.isfinite(f).all() and np.isfinite(f_inv).all()
                # round-off: p ulps at the matrix's scale, and p of the subnormal spacing
                tol = len(x) * (1e-14 * np.abs(x).max() + 2.0 ** -1074)
                assert np.abs(f @ f.T - x).max() <= tol
                accepted += 1
        assert 0 < accepted < len(mats) * len(range(-1074, 1024, 7))

    @pytest.mark.parametrize("k", [-1045, -1060])
    def test_a_subnormal_matrix_near_the_floor_solves(self, k):
        a = check_spd(np.ldexp(A2, k))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = mm_solve(Ensemble.from_matrices([a, a]), SolverConfig(), a)
        assert (res.status, res.iters_used) == ("converged", 0)
        assert np.array_equal(res.mean, a)

    def test_a_subnormal_matrix_past_the_floor_is_refused(self):
        with pytest.raises(DomainError, match=re.escape(
                "matrix is not positive definite (eigenvalue -0)")):
            check_spd(np.ldexp(A2, -1050))

    @pytest.mark.parametrize("mats", [[], (), np.zeros((0, 3, 3)), np.zeros((0, 0))],
                             ids=["list", "tuple", "(0, 3, 3)", "(0, 0)"])
    def test_no_matrix_is_a_named_error(self, mats):
        # not numpy's reduction error, nor a 0x0 "matrix 0"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="^expected at least one matrix, got none$"):
                spd_core.check_spd_stack(mats)

    def test_cholesky_factor_and_its_inverse(self, rng):
        mats = np.array([random_spd(rng, 5) * 10.0 ** k for k in (-200, 0, 200)])
        out, factors, inv_factors = spd_core.check_spd_stack(mats)
        assert np.array_equal(out, sym(mats))
        _assert_cholesky_pair(out, factors, inv_factors)

    @pytest.mark.parametrize("p", [1, 2, 10, spd_core.TRI_BLOCK])
    def test_bordered_factorization_gives_cholesky_factors(self, monkeypatch, rng, p):
        # a BLAS that mishandles the ∞ corner fails here: by a warning, a non-finite L or L⁻¹,
        # or a silent fall back onto the eigendecomposition and its factors U·D^{1/2}
        def no_eigh(m, vectors=True):
            raise AssertionError("a well-conditioned stack was decomposed")

        monkeypatch.setattr(spd_core, "eigh", no_eigh)
        mats = np.array([random_spd(rng, p) for _ in range(3)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, factors, inv_factors = spd_core.check_spd_stack(mats)
            e = Ensemble.from_matrices(mats)
        assert np.isfinite(factors).all() and np.isfinite(inv_factors).all()
        _assert_cholesky_pair(out, factors, inv_factors)
        assert np.array_equal(e.inv_factors, inv_factors)

    def test_edge_stacks_keep_their_outcomes_under_the_bordered_factorization(self, rng):
        # non-finite and zero matrices are refused as before; the subnormal A2 near the floor
        # has no Cholesky factor and keeps its spectral one; at 10^±300 a matrix keeps its
        # Cholesky factor
        refused = [([np.eye(2), np.diag([np.nan, 1.0])], "matrix 1 has a non-finite entry"),
                   ([np.diag([np.inf, 1.0])], "matrix 0 has a non-finite entry"),
                   ([np.eye(3), np.zeros((3, 3))],
                    "matrix 1 is not positive definite (eigenvalue 0)")]
        spectral = [[np.ldexp(A2, -1045)], [np.ldexp(A2, -1060)], [np.ldexp(A2, -1045)] * 2]
        cholesky = [[random_spd(rng, 10) * 1e300, random_spd(rng, 10)],
                    [random_spd(rng, 10) * 1e-300, random_spd(rng, 10)],
                    [random_spd(rng, spd_core.TRI_BLOCK) * 1e-300]]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for mats, message in refused:
                assert _outcome(mats)[0] == message
            for mats in spectral:
                _, factors, inv_factors = spd_core.check_spd_stack(mats)
                assert np.isfinite(factors).all() and np.isfinite(inv_factors).all()
                assert np.triu(factors, 1).any()
            for mats in cholesky:
                _assert_cholesky_pair(*spd_core.check_spd_stack(mats))

    def test_path_follows_the_stack_size(self, monkeypatch, rng):
        # one bordered factorization while the (k, 2p, 2p) stack holds at most BORDER_BYTES
        # and p ≤ TRI_BLOCK; else the factor and its forward substitution
        shapes = []

        def counted(a, message):
            shapes.append(a.shape)
            return real(a, message)

        real = spd_core.cholesky
        monkeypatch.setattr(spd_core, "cholesky", counted)
        b, most = spd_core.TRI_BLOCK, spd_core.BORDER_BYTES // (32 * 10 * 10)
        for k, p, want in ((most, 10, (most, 20, 20)), (most + 1, 10, (most + 1, 10, 10)),
                           (1, b, (1, 2 * b, 2 * b)), (1, b + 1, (1, b + 1, b + 1))):
            mats = np.array([random_spd(rng, p) for _ in range(k)])
            shapes.clear()
            _assert_cholesky_pair(*spd_core.check_spd_stack(mats))
            assert shapes == [want]


B = spd_core.TRI_BLOCK


def _factors(rng, p, k=4):
    """Cholesky factors of k random SPD matrices, condition up to 1e6."""
    mats = [random_spd(rng, p, lo=10.0 ** -e, hi=1.0) for e in np.linspace(0, 6, k)]
    return np.linalg.cholesky(np.array(mats))


class TestTriInv:
    @pytest.mark.parametrize("p", [1, 2, 5, B])
    def test_small_stacks_are_one_forward_substitution(self, rng, p):
        # a stack past the bordered size at p ≤ TRI_BLOCK: one stacked substitution, no LU
        l = _factors(rng, p)
        x = np.zeros_like(l)
        spd_core._lower_inv(l, x)
        assert np.array_equal(spd_core._tri_inv(l), x)

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
               "finite_diff_directional": "x"}


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


# Every real scalar the package takes, each read by spd_core._real_number: the
# call, its refusal ({v!r} the value) and whether the value must be positive.
_SCALAR_SITES = {
    "grad_tol": (lambda v: SolverConfig(grad_tol=v), "grad_tol must be positive and finite", True),
    "nu": (lambda v: SolverConfig(nu=v), "nu must be positive and finite", True),
    "scale_first_by": (lambda v: ExperimentSpec(2, 2, SpectrumSpec("uniform", 2, lo=1.0, hi=2.0),
                                                [SolverSpec("mm")], scale_first_by=v),
                       "scale_first_by must be positive and finite, got {v!r}", True),
    "h": (lambda v: finite_diff_directional(np.trace, 5.0 * np.eye(2), np.eye(2), h=v),
          "finite difference step h must be positive and finite, got {v!r}", True),
    "g1": (g1_scalar, "g1 requires x to be a positive finite real number, got {v!r}", True),
    "g2": (g2_scalar, "g2 requires x to be a positive finite real number, got {v!r}", True),
    "pow_m": (lambda v: pow_m(np.diag([2.0, 3.0]), v),
              "pow_m requires t to be a finite real number, got {v!r}", False),
    "geodesic": (lambda v: geodesic(np.eye(2), np.diag([2.0, 3.0]), v),
                 "geodesic requires t to be a finite real number, got {v!r}", False),
    "c0": (lambda v: surrogate_value(SurrogateCoeffs(np.eye(2), np.eye(2), v), np.eye(2)),
           "c0 must be a finite real number, got {v!r}", False),
    "lo": (lambda v: SpectrumSpec("uniform", 2, lo=v, hi=4.0),
           "spectrum field 'lo' must be a finite number, got {v!r}", False),
    "hi": (lambda v: SpectrumSpec("uniform", 2, lo=0.25, hi=v),
           "spectrum field 'hi' must be a finite number, got {v!r}", False),
    "a": (lambda v: SpectrumSpec("geometric", 2, a=v),
          "spectrum field 'a' must be a finite number, got {v!r}", False),
    "values": (lambda v: SpectrumSpec("explicit", 2, values=[1.0, v]),
               "spectrum field 'values' entry 1 must be a finite number, got {v!r}", False),
}

_NOT_A_REAL_NUMBER = {
    "True": True, "nan": math.nan, "np.float64(nan)": np.float64(math.nan), "inf": math.inf,
    "-inf": -math.inf, "10**400": 10**400, "'1'": "1", "None": None, "1j": 1j,
    "np.array(2.0)": np.array(2.0),
}


@pytest.mark.parametrize("site, value", [
    pytest.param(site, value, id=f"{site}-{label}")
    for site, (_, _, positive) in _SCALAR_SITES.items()
    for label, value in {**_NOT_A_REAL_NUMBER, **({"0": 0, "-1": -1} if positive else {})}.items()
    if not (site in ("grad_tol", "lo", "hi", "a") and value is None)  # None is their default
])
def test_every_scalar_site_refuses_alike(site, value):
    # the scalar half of the input-contract drift guard: one rule, each site's own message
    call, message, _ = _SCALAR_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as info:
            call(value)
    assert str(info.value) == message.format(v=value)


@pytest.mark.parametrize("site", sorted(_SCALAR_SITES))
@pytest.mark.parametrize("value", [2, np.float32(0.5), np.float64(0.5)],
                         ids=["2", "np.float32(0.5)", "np.float64(0.5)"])
def test_every_scalar_site_takes_a_real_number_as_its_float(site, value):
    call = _SCALAR_SITES[site][0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, want = call(value), call(float(value))
    if dataclasses.is_dataclass(got):  # a config or spec keeps the value it was given
        kept = getattr(got, site)
        assert got == want and (kept[1] if site == "values" else kept) is value
    else:
        assert np.array_equal(got, want)


# spd_core._whole_number: the call, the field its refusal names and the least value it takes.
_SPECTRUM_1 = SpectrumSpec("uniform", 1, lo=1.0, hi=2.0)
_WHOLE_NUMBER_SITES = {
    "max_iters": (lambda v: SolverConfig(max_iters=v), "max_iters", 1),
    "dim": (lambda v: SpectrumSpec(kind="uniform", dim=v, lo=1.0, hi=2.0), "spectrum dim", 1),
    "n": (lambda v: ExperimentSpec(v, 1, _SPECTRUM_1, [SolverSpec("mm")]), "n", 1),
    "p": (lambda v: ExperimentSpec(1, v, _SPECTRUM_1, [SolverSpec("mm")]), "p", 1),
    "runs": (lambda v: ExperimentSpec(1, 1, _SPECTRUM_1, [SolverSpec("mm")], runs=v), "runs", 1),
    "seed": (lambda v: ExperimentSpec(1, 1, _SPECTRUM_1, [SolverSpec("mm")], seed=v), "seed", 0),
    "random_orthogonal": (lambda v: random_orthogonal(v, np.random.default_rng(0)), "p", 1),
    "random_spd": (lambda v: random_spd(np.random.default_rng(0), v), "p", 1),
    "random_ensemble": (lambda v: random_ensemble(np.random.default_rng(0), v, 3), "n", 1),
    "commuting_ensemble": (lambda v: commuting_ensemble(np.random.default_rng(0), v, 3), "n", 1),
    "random_sym": (lambda v: random_sym(np.random.default_rng(0), v), "p", 1),
}


@pytest.mark.parametrize("site", sorted(_WHOLE_NUMBER_SITES))
def test_every_whole_number_site_refuses_alike(site):
    # one rule and one message shape; a float, bool, string or None is no whole number
    call, field, least = _WHOLE_NUMBER_SITES[site]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value in (2.5, True, np.float64(3.0), "3", None, least - 1):
            with pytest.raises(DomainError) as info:
                call(value)
            assert str(info.value) == f"{field} must be an integer >= {least}, got {value!r}"
        call(np.int64(least))


# The matrix half of the input-contract drift guard. A row feeds one matrix
# argument of an exported call, of the views grad_sum and euclidean_gradient,
# or of check_spd_stack, each bad matrix below, with every other argument valid:
# (the export, the call, a pattern for the argument's name in its errors).
_I2 = np.eye(2)
# two_matrix_oracle's a or b opens the message, or follows "expected": not the article "a"
_A, _B = "^(?:expected )?a", "^(?:expected )?b"
_E2 = Ensemble.from_matrices([_I2, np.diag([2.0, 3.0])])
_MATRIX_ROWS = {
    **{name: (name, getattr(spdmean, name), "matrix")
       for name in ("check_spd", "exp_m", "log_m", "sqrt_m", "inv_sqrt_m", "inv_m")},
    "pow_m": ("pow_m", lambda m: pow_m(m, 0.5), "matrix"),
    "geodesic-x1": ("geodesic", lambda m: geodesic(m, _I2, 0.5), "x1"),
    "geodesic-x2": ("geodesic", lambda m: geodesic(_I2, m, 0.5), "x2"),
    "riem_dist-x1": ("riem_dist", lambda m: riem_dist(m, _I2), "x1"),
    "riem_dist-x2": ("riem_dist", lambda m: riem_dist(_I2, m), "x2"),
    "two_matrix_oracle-a": ("two_matrix_oracle", lambda m: two_matrix_oracle(m, _I2), _A),
    "two_matrix_oracle-b": ("two_matrix_oracle", lambda m: two_matrix_oracle(_I2, m), _B),
    "frob_inner-a": ("frob_inner", lambda m: frob_inner(m, m), _A + "|^the inner product of a"),
    # a shape unlike a's is a mismatch of the pair, shown in b's place
    "frob_inner-b": ("frob_inner", lambda m: frob_inner(_I2, m),
                     r"b|^shape mismatch: \(2, 2\) vs"),
    "from_matrices": ("Ensemble", Ensemble.from_matrices, "matri(x|ces)"),
    "from_matrices-member": ("Ensemble", lambda m: Ensemble.from_matrices([_I2, m]), "matrix 1"),
    # given each bad matrix as the whole stack
    "check_spd_stack": (None, spd_core.check_spd_stack, "matri(x|ces)"),
    "objective": ("objective", lambda m: objective(_E2, m), "point"),
    "grad_sum": (None, lambda m: karcher.grad_sum(_E2, m), "point"),
    "euclidean_gradient": (None, lambda m: karcher.euclidean_gradient(_E2, m), "point"),
    "surrogate_coeffs": ("surrogate_coeffs", lambda m: surrogate_coeffs(_E2, m), "point"),
    "surrogate_value": ("surrogate_value",
                        lambda m: surrogate_value(surrogate_coeffs(_E2, _I2), m), "point"),
    "surrogate_minimizer-c1": ("surrogate_minimizer", lambda m: surrogate_minimizer(m, _I2), "c1"),
    "surrogate_minimizer-c2": ("surrogate_minimizer", lambda m: surrogate_minimizer(_I2, m), "c2"),
    "finite_diff_directional-x": ("finite_diff_directional",
                                  lambda m: finite_diff_directional(np.trace, m, _I2), "x"),
    "finite_diff_directional-h_dir": ("finite_diff_directional",
                                      lambda m: finite_diff_directional(np.trace, _I2, m), "h_dir"),
    "scalar_karcher_oracle": ("scalar_karcher_oracle", scalar_karcher_oracle, "values"),
    **{f"{name}-x0": (name, lambda m, solve=getattr(spdmean, name): solve(_E2, SolverConfig(), m),
                      "point")
       for name in ("mm_solve", "gd_fixed_step_solve", "gd_linesearch_solve")},
}

# exports that take no matrix: specs, results, errors, scalars and ensembles
_TAKE_NO_MATRIX = {
    "ExperimentReport", "ExperimentSpec", "SolverSpec", "SpectrumSpec", "generate_ensemble",
    "random_orthogonal", "run_experiment", "DimensionMismatch", "DomainError", "NonConvergence",
    "NotCommuting", "SpdMeanError", "SurrogateCoeffs", "g1_scalar", "g2_scalar",
    "commuting_oracle", "SolverConfig", "SolverResult", "TraceRecord", "arithmetic_mean_init",
}

_BAD_MATRICES = {
    "nan": lambda: np.array([[np.nan, 0.0], [0.0, 1.0]]),
    "inf": lambda: np.array([[np.inf, 0.0], [0.0, 1.0]]),
    "complex": lambda: np.array([[2.0, 1j], [-1j, 2.0]]),
    "0x0": lambda: np.zeros((0, 0)),
    "non-square": lambda: np.ones((2, 3)),
    "stack": lambda: np.stack([_I2, _I2]),
    "bool": lambda: np.eye(2, dtype=bool),
    "bool-in-list": lambda: [[2, True], [True, 2]],
    "string": lambda: [["1", "0"], ["0", "1"]],
    "object": lambda: np.array([[1.0, 0.0], [0.0, "x"]], dtype=object),
    "ragged": lambda: [[1.0, 0.0], [0.0]],
    "1e308*I": lambda: 1e308 * _I2,
    "scalar": lambda: 3.0,
    "None": lambda: None,
    "generator": lambda: (row for row in _I2),
    # numpy reads each of these as a 0-d object or string array
    "dict-values": lambda: {0: _I2}.values(),
    "set": lambda: {((2.0, 0.0), (0.0, 2.0))},
    "str": lambda: "ab",
    # a buffer, read by its format: a valid matrix, or as a stack two rows
    "memoryview": lambda: memoryview(np.eye(2)),
    # beyond float64, where the platform's long double reaches it
    **({"longdouble-1e400": lambda: np.array([[np.longdouble("1e400"), 0], [0, 1]])}
       if np.finfo(np.longdouble).max > np.finfo(float).max else {}),
}

# valid matrices whose value leaves float64 or the cone: the error speaks of that value
_VALUE_ERRORS = {
    ("exp_m", "1e308*I"): "^scalar function not finite on the spectrum$",
    ("finite_diff_directional-h_dir", "1e308*I"): "^perturbed matrix is not positive definite",
}


def _all_finite(out):
    """Whether a result, or every array and float a result object holds, is finite."""
    parts = vars(out).values() if dataclasses.is_dataclass(out) else [out]
    return all(np.isfinite(v).all() for v in parts if isinstance(v, (np.ndarray, float)))


@pytest.mark.parametrize("row", sorted(_MATRIX_ROWS))
@pytest.mark.parametrize("bad", _BAD_MATRICES)
def test_every_matrix_argument_ends_in_a_finite_result_or_a_named_error(row, bad):
    _, call, name = _MATRIX_ROWS[row]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            out = call(_BAD_MATRICES[bad]())
        except SpdMeanError as exc:
            assert re.search(_VALUE_ERRORS.get((row, bad), rf"\b(?:{name})\b"), str(exc)), exc
        else:
            assert (row, bad) not in _VALUE_ERRORS and _all_finite(out)


def test_every_export_that_takes_a_matrix_has_a_row():
    exports = {name for name in dir(spdmean)
               if not name.startswith("_") and callable(getattr(spdmean, name))}
    assert exports - _TAKE_NO_MATRIX == {export for export, _, _ in _MATRIX_ROWS.values()} - {None}


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

    @pytest.mark.parametrize("which", ["a", "b"])
    def test_rejects_a_bool_in_a_list(self, which):
        # numpy would read [[2, True], [True, 2]] as [[2, 1], [1, 2]]
        args = {"a": np.eye(2), "b": np.eye(2), which: [[2, True], [True, 2]]}
        with pytest.raises(DomainError, match=f"^{which} has a non-numeric entry$"):
            frob_inner(**args)

    def test_takes_a_list_of_numbers(self):
        assert frob_inner([[2, 1], [1, 2]], np.eye(2)) == 4.0


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
