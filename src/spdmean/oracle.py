"""Independent reference implementations used to validate the solvers.

These are closed forms and brute-force probes trusted at desk scale:
solver tests compare against them, never the other way around.
"""

from typing import Callable, Tuple

import numpy as np

from .errors import DomainError, NotCommuting
from .karcher import Ensemble, g1_scalar, g2_scalar
from .spd_core import (_eig_apply, check_symmetric, exp_m, geodesic, inv_m, inv_sqrt_m,
                       log_m, sqrt_m, sym)

COMMUTE_CHECK_TOL = 1e-10


def scalar_karcher_oracle(values) -> float:
    """Geometric mean exp(mean(log v)); the exact 1x1 Karcher mean."""
    vals = np.asarray(values, dtype=float)
    if vals.size == 0 or not np.all((vals > 0) & (vals < np.inf)):  # NaN fails too
        raise DomainError("geometric mean requires positive finite values")
    return float(np.exp(np.mean(np.log(vals))))


def commuting_oracle(e: Ensemble) -> np.ndarray:
    """Closed-form Karcher mean exp((1/n) Σ log Aᵢ) for commuting inputs.

    Raises
    ------
    NotCommuting
        If some pair fails ‖AB − BA‖_F ≤ 1e-10 · ‖A‖_F ‖B‖_F.
    """
    for i in range(e.n):
        for j in range(i + 1, e.n):
            a, b = e.mats[i], e.mats[j]
            comm = np.linalg.norm(a @ b - b @ a)
            if comm > COMMUTE_CHECK_TOL * np.linalg.norm(a) * np.linalg.norm(b):
                raise NotCommuting(f"matrices {i} and {j} do not commute")
    avg_log = np.zeros((e.dim, e.dim))
    for i in range(e.n):
        avg_log = avg_log + log_m(e.mats[i])
    return exp_m(sym(avg_log / e.n))


def two_matrix_oracle(a, b) -> np.ndarray:
    """Karcher mean of two matrices: the geodesic midpoint."""
    return geodesic(a, b, 0.5)


def two_root_minimizer(c1, c2) -> np.ndarray:
    """Minimizer of ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ as c2^{1/2} (c2^{1/2} c1 c2^{1/2})^{-1/2} c2^{1/2}.

    The square-root form of :func:`spdmean.karcher.surrogate_minimizer`,
    which computes the same matrix from a Cholesky factor of c2.
    """
    s2 = sqrt_m(c2)
    return sym(s2 @ inv_sqrt_m(sym(s2 @ c1 @ s2)) @ s2)


def grid_minimize_1d(f: Callable[[float], float], lo: float, hi: float,
                     points: int) -> Tuple[float, float]:
    """Grid argmin of a scalar function, log-spaced when lo > 0.

    Reference-only: never used inside the solvers.
    """
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


def finite_diff_directional(f, x, h_dir, h: float = 1e-6) -> float:
    """Central difference (f(X + hH) − f(X − hH)) / 2h along symmetric H.

    Raises
    ------
    DomainError
        If either perturbed matrix leaves the SPD cone.
    """
    x = np.asarray(x, dtype=float)
    h_dir = np.asarray(h_dir, dtype=float)
    for sign in (1.0, -1.0):
        w = np.linalg.eigvalsh(sym(x + sign * h * h_dir))
        if w[0] <= 0:
            raise DomainError("perturbed matrix is not positive definite")
    return (f(x + h * h_dir) - f(x - h * h_dir)) / (2.0 * h)


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
    """The ensemble sums of :mod:`karcher` by their per-matrix definitions.

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
