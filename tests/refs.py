"""Brute-force references that only the tests compare against.

Each one recomputes, by a slower or more literal route, something the
package computes another way: the per-matrix loop behind the stacked
ensemble sums, the square-root form of the surrogate minimizer, a
matrix function that calls a Python scalar function once per
eigenvalue, a grid argmin of a scalar function, a frozen copy of the
stacked SPD validation pass as it stood before its one-pass rewrite, a
frozen copy of the triangular inverse as it stood before it could write
over its input, and a frozen copy of the experiment generator's draw
loop as it stood before it scaled A₁ after the loop.
"""

from typing import Callable, Tuple

import numpy as np

from spdmean.bench import ExperimentSpec, random_orthogonal
from spdmean.errors import DomainError
from spdmean.karcher import Ensemble, g1_scalar, g2_scalar
from spdmean.spd_core import (POSITIVITY_FLOOR, SYM_TOL, TRI_BLOCK, _diag_blocks, _eig_apply,
                              check_symmetric, cholesky, eigh, inv_m, inv_sqrt_m, log_m, sqrt_m,
                              sym)


def two_root_minimizer(c1, c2) -> np.ndarray:
    """Minimizer of ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ as c2^{1/2} (c2^{1/2} c1 c2^{1/2})^{-1/2} c2^{1/2}.

    The square-root form of :func:`spdmean.karcher.surrogate_minimizer`,
    which computes the same matrix from a Cholesky factor of c2.
    """
    s2 = sqrt_m(c2)
    return sym(s2 @ inv_sqrt_m(sym(s2 @ c1 @ s2)) @ s2)


def grid_minimize_1d(f: Callable[[float], float], lo: float, hi: float,
                     points: int) -> Tuple[float, float]:
    """Grid argmin of a scalar function, log-spaced when lo > 0."""
    if not lo < hi:
        raise DomainError("grid_minimize_1d requires lo < hi")
    if points < 3:
        raise DomainError("grid_minimize_1d requires at least 3 points")
    if lo > 0:
        grid = np.geomspace(lo, hi, points)
    else:
        grid = np.linspace(lo, hi, points)
    vals = np.array([f(float(x)) for x in grid])
    if not np.all(np.isfinite(vals)):
        raise DomainError("function not finite on the grid")
    k = int(np.argmin(vals))
    return float(grid[k]), float(vals[k])


def matrix_fn(m, f: Callable[[float], float]):
    """Apply a scalar function to a symmetric matrix through its eigenvalues.

    ``f`` is called once per eigenvalue; a ``ValueError`` or non-finite
    result is reported as :class:`DomainError`.
    """

    def fvals(w):
        out = np.empty_like(w)
        for i, x in enumerate(w):
            try:
                out[i] = f(float(x))
            except (ValueError, ZeroDivisionError, OverflowError) as exc:
                raise DomainError(f"eigenvalue {x:.6g} outside function domain") from exc
        return out

    return _eig_apply(check_symmetric(m), fvals, spd_valued=False)


def per_matrix_terms(e: Ensemble, x) -> dict:
    """The ensemble sums of :mod:`spdmean.karcher` by their per-matrix definitions.

    A loop over i with Yᵢ = Aᵢ^{-1/2} x Aᵢ^{-1/2}, the roots recomputed
    from Aᵢ, and one matrix function per term: ``objective`` Σ ‖log Yᵢ‖²,
    ``grad_sum`` Σ log(x^{-1/2} Aᵢ x^{-1/2}), ``f1`` Σ Aᵢ^{-1/2} g1(Yᵢ)
    Aᵢ^{-1/2}, ``f2`` Σ Aᵢ^{1/2} g2(Yᵢ) Aᵢ^{1/2} and ``euclidean_gradient``
    Σ Aᵢ^{-1/2} 2 Yᵢ⁻¹ log Yᵢ Aᵢ^{-1/2}.
    """
    x = np.asarray(x, dtype=float)
    xi = inv_sqrt_m(x)
    zero = np.zeros_like(x)
    out = {"objective": 0.0, "grad_sum": zero, "f1": zero, "f2": zero,
           "euclidean_gradient": zero}
    for a in e.mats:
        s, si = sqrt_m(a), inv_sqrt_m(a)
        y = sym(si @ x @ si)
        log_y = log_m(y)
        out["objective"] += float(np.sum(log_y * log_y))
        out["grad_sum"] = out["grad_sum"] + log_m(sym(xi @ a @ xi))
        out["f1"] = out["f1"] + sym(si @ matrix_fn(y, g1_scalar) @ si)
        out["f2"] = out["f2"] + sym(s @ matrix_fn(y, g2_scalar) @ s)
        out["euclidean_gradient"] = out["euclidean_gradient"] + \
            sym(si @ (2.0 * inv_m(y) @ log_y) @ si)
    return out


# The stacked validation pass before it was rewritten as one lean pass:
# a separate scale, symmetry test, symmetrization and bound, each over
# the whole stack. The rewrite must match it message for message and
# byte for byte.

def frozen_sym(a):
    """(A + Aᵀ)/2 of a matrix or stack, halving before adding."""
    half = a * 0.5
    return half + np.swapaxes(half, -1, -2)


def frozen_scales(mats):
    """max |entry| of each matrix of a (k, p, p) stack; NaN where one is NaN."""
    return np.maximum.reduce(np.abs(mats), axis=(1, 2), initial=0.0)


def _frozen_sq_norms(mats):
    v = mats.reshape(len(mats), 1, -1)
    return (v @ v.swapaxes(1, 2))[:, 0, 0]


def frozen_symmetric(mats, top):
    """Which matrices of a finite stack have ‖A − Aᵀ‖_F ≤ SYM_TOL‖A‖_F; each ‖A‖_F / max |entry|.

    ``top`` holds each matrix's :func:`frozen_scales`; a matrix whose
    top lies outside (1e-100, 1e100) is divided by it first.
    """
    plain = (top > 1e-100) & (top < 1e100)
    if not plain.all():
        mats = mats / np.where(plain | (top == 0), 1.0, top)[:, None, None]
    sq = _frozen_sq_norms(mats)
    rel_norms = np.sqrt(sq) / np.where(plain, top, 1.0)
    return _frozen_sq_norms(mats - mats.swapaxes(1, 2)) <= SYM_TOL * SYM_TOL * sq, rel_norms


def frozen_check_spd_stack(mats, name_of=lambda i: f"matrix {i}"):
    """(sym(A), factors, inverse factors) of an SPD stack; else DomainError naming the first bad one.

    Non-finite, symmetric and positive definite tests in that order; a
    matrix whose Cholesky bound ‖Lᵢ⁻¹‖_F²·‖Aᵢ‖_F does not clear
    1/(10·POSITIVITY_FLOOR) gets the eigenvalue test, and a stack with no
    Cholesky factor is decomposed whole and keeps the spectral factors.
    """
    mats = np.asarray(mats, dtype=float)
    top = frozen_scales(mats)
    finite = top < np.inf
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0.0)
        top = np.where(finite, top, 0.0)
    symmetric, rel_norms = frozen_symmetric(mats, top)
    mats = frozen_sym(mats)
    try:
        factors = cholesky(mats, "stack has no Cholesky factor")
    except DomainError:
        factors = None
        exact = np.ones(len(mats), dtype=bool)
    else:
        inv_factors = frozen_tri_inv(factors)
        with np.errstate(over="ignore"):
            bound = _frozen_sq_norms(inv_factors) * top * rel_norms
        exact = ~(bound < 0.1 / POSITIVITY_FLOOR)
    positive = np.ones(len(mats), dtype=bool)
    w0 = np.zeros(len(mats))
    if exact.any():
        k = np.frexp(top[exact])[1]
        w, u = eigh(np.ldexp(mats[exact], -k[:, None, None]))
        w = np.ldexp(w, k[:, None])
        w0[exact] = w[:, 0]
        positive[exact] = w[:, 0] > POSITIVITY_FLOOR * np.abs(w[:, -1])
    ok = symmetric & positive
    if not ok.all():
        i = int(ok.argmin())
        if not finite[i]:
            raise DomainError(f"{name_of(i)} has a non-finite entry")
        if not symmetric[i]:
            raise DomainError(f"{name_of(i)} is not symmetric")
        raise DomainError(f"{name_of(i)} is not positive definite "
                          f"(eigenvalue {w0[i]:.6g})")
    if factors is None:
        root = np.sqrt(w)
        factors, inv_factors = u * root[:, None, :], np.swapaxes(u, 1, 2) / root[:, :, None]
    return mats, factors, inv_factors


def frozen_tri_inv(l):
    """L⁻¹ of each lower triangular matrix of a (k, p, p) stack, into a fresh stack; L is kept.

    Block forward substitution over block rows of width ``TRI_BLOCK``
    (``np.linalg.inv`` for p ≤ ``TRI_BLOCK``): the diagonal blocks of the
    whole stack by one stacked row-by-row substitution, then each block
    row left of the diagonal as two stacked products.
    """
    p = l.shape[-1]
    if p <= TRI_BLOCK:
        return np.linalg.inv(l)
    b, m = TRI_BLOCK, p // TRI_BLOCK
    x = np.zeros_like(l)
    for lb, xb in ((_diag_blocks(l, b, m), _diag_blocks(x, b, m)),
                   (l[:, m * b:, m * b:], x[:, m * b:, m * b:])):
        r = 1.0 / np.diagonal(lb, axis1=-2, axis2=-1)
        for i in range(lb.shape[-1]):
            xb[..., i, :i] = (lb[..., i:i + 1, :i] @ xb[..., :i, :i])[..., 0, :] * -r[..., i:i + 1]
            xb[..., i, i] = r[..., i]
    for s in range(b, p, b):
        e = min(s + b, p)
        x[:, s:e, :s] = -(x[:, s:e, s:e] @ (l[:, s:e, :s] @ x[:, :s, :s]))
    return x


def frozen_generate_ensemble(spec: ExperimentSpec, rng: np.random.Generator) -> Ensemble:
    """Draw one problem instance A_i = U_i S_i U_i^T per the spec."""
    mats = []
    for i in range(spec.n):
        u = random_orthogonal(spec.p, rng)
        s = spec.spectrum.sample(rng)
        a = sym((u * s) @ u.T)
        if i == 0:
            a = a * spec.scale_first_by
        mats.append(a)
    return Ensemble.from_matrices(mats)
