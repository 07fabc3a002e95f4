"""Brute-force references that only the tests compare against.

Each one recomputes, by a slower or more literal route, something the
package computes another way: the per-matrix loop behind the stacked
ensemble sums, the square-root form of the surrogate minimizer, a
matrix function that calls a Python scalar function once per
eigenvalue, and a grid argmin of a scalar function.
"""

from typing import Callable, Tuple

import numpy as np

from spdmean.errors import DomainError
from spdmean.karcher import Ensemble, g1_scalar, g2_scalar
from spdmean.spd_core import _eig_apply, check_symmetric, inv_m, inv_sqrt_m, log_m, sqrt_m, sym


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
