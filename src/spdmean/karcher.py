"""Karcher-mean objective, its descent direction, and the surrogate.

The objective is ``F(X) = Σᵢ ‖log(Aᵢ^{-1/2} X Aᵢ^{-1/2})‖_F²``. Each
iteration of the majorization-minimization scheme replaces F by the
surrogate ``G(X, X') = ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0`` built from the scalar
weights :func:`g1_scalar` / :func:`g2_scalar`, and minimizes G in closed
form (:func:`surrogate_minimizer`).

Every ensemble sum comes from one stacked eigendecomposition of the
matrices Yᵢ = Aᵢ^{-1/2} X Aᵢ^{-1/2} (:func:`_karcher_terms`); sums over i
are single matrix products over the stack, so results are bitwise
reproducible for a given numpy and BLAS.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError
from .spd_core import (
    _spectral_apply,
    check_spd,
    check_spd_stack,
    eigh,
    frob_inner,
    inv_m,
    sym,
)


@dataclass(frozen=True)
class Ensemble:
    """The problem instance {A_1..A_n} with cached square roots.

    Attributes
    ----------
    mats : ndarray, shape (n, p, p)
        The SPD matrices A_i.
    sqrts, inv_sqrts : ndarray, shape (n, p, p)
        Cached A_i^{1/2} and A_i^{-1/2}.
    """

    mats: np.ndarray
    sqrts: np.ndarray = field(repr=False)
    inv_sqrts: np.ndarray = field(repr=False)

    @classmethod
    def from_matrices(cls, mats: Sequence[np.ndarray]) -> "Ensemble":
        """Validate each matrix as SPD and precompute its square roots.

        Every error names the offending matrix by its index, e.g.
        ``matrix 1 is not symmetric``; the CLI prints it as is. The first
        bad matrix is reported; a dimension mismatch only when every
        matrix is SPD on its own.
        """
        if len(mats) == 0:
            raise DomainError("ensemble must contain at least one matrix")
        arrs = [np.asarray(a, dtype=float) for a in mats]
        shape = arrs[0].shape
        if len(shape) != 2 or shape[0] != shape[1] or \
                any(a.shape != shape for a in arrs):
            # no stack: the per-matrix checks or the dimension check raise
            checked = [check_spd(a, name=f"matrix {i}") for i, a in enumerate(arrs)]
            for i, a in enumerate(checked):
                if a.shape[0] != shape[0]:
                    raise DimensionMismatch(
                        f"matrix {i} has dim {a.shape[0]}, expected {shape[0]}")
        stack, w, u = check_spd_stack(np.array(arrs))
        root = np.sqrt(w)[:, None, :]
        ut = np.swapaxes(u, 1, 2)
        return cls(mats=stack, sqrts=sym((u * root) @ ut),
                   inv_sqrts=sym((u / root) @ ut))

    @property
    def n(self) -> int:
        return self.mats.shape[0]

    @property
    def dim(self) -> int:
        return self.mats.shape[1]


@dataclass(frozen=True)
class SurrogateCoeffs:
    """Coefficients of the surrogate ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0."""

    c1: np.ndarray
    c2: np.ndarray
    c0: float


def _check_point(e: Ensemble, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (e.dim, e.dim):
        raise DimensionMismatch(
            f"point has shape {x.shape}, ensemble dim is {e.dim}")
    return x


def g1_scalar(x: float) -> float:
    """Weight g1(x) = (√((log x)² + 1) + log x) / x for x > 0.

    The branch with log x < 0 is evaluated through the reciprocal form
    1 / (x (√(z²+1) − z)) so no cancellation occurs and
    ``g1_scalar(x) * g2_scalar(x) == 1`` to machine precision.
    """
    if x <= 0:
        raise DomainError(f"g1 requires x > 0, got {x}")
    z = np.log(x)
    s = np.sqrt(z * z + 1.0)
    if z >= 0:
        return float((s + z) / x)
    return float(1.0 / (x * (s - z)))


def g2_scalar(x: float) -> float:
    """Weight g2(x) = (√((log x)² + 1) − log x) · x for x > 0; g2 = 1/g1."""
    if x <= 0:
        raise DomainError(f"g2 requires x > 0, got {x}")
    z = np.log(x)
    s = np.sqrt(z * z + 1.0)
    if z <= 0:
        return float((s - z) * x)
    return float(x / (s + z))


def _g12_values(w, log_w):
    """Vectorized (g1, g2) on a positive spectrum, cancellation-safe.

    With t = √(z² + 1) + |z|, z = log w, the factor √(z² + 1) + z is t
    for z ≥ 0 and 1/t for z < 0, so neither branch subtracts. w is not
    tested here: :func:`_spectra` has required it to be positive.
    """
    t = np.sqrt(log_w * log_w + 1.0) + np.abs(log_w)
    r = np.where(log_w >= 0, t, 1.0 / t)
    return r / w, w / r


def _spectra(e: Ensemble, x, vectors=True):
    """Stacked eigendecomposition of Yᵢ = Aᵢ^{-1/2} X Aᵢ^{-1/2}.

    Returns the (n, p) ascending eigenvalues and, with ``vectors``, the
    (n, p, p) eigenvectors Uᵢ (else ``None``). The eigensolver reads the
    lower triangle only, so the products are not symmetrized first.
    Every Yᵢ must be positive definite; a NaN spectrum fails that test.
    x is not validated: the public views check it with :func:`_check_point`,
    the solvers once at the start point.
    """
    y = e.inv_sqrts @ x @ e.inv_sqrts
    w, u = eigh(y, vectors)
    if not np.all(w[:, 0] > 0):
        finite = np.isfinite(y).all(axis=(1, 2))
        if not finite.all():
            raise DomainError(f"A^(-1/2) X A^(-1/2) overflows float64 for matrix "
                              f"{int(np.argmin(finite))}")
        raise DomainError("objective requires a positive definite point")
    return w, u


def _sum_sq(log_w):
    """Σ (log w)², summed exactly.

    Line-search GD compares objectives that differ by a few ulps near
    convergence; an exact sum does not depend on the summation order,
    and its smaller rounding noise lets fewer runs stall there.
    """
    return math.fsum(np.square(log_w).ravel())


def _sandwich(ft, weights):
    """Σᵢ Fᵢ diag(weightsᵢ) Fᵢᵀ from the stacked transposes Fᵢᵀ.

    The rows of all Fᵢᵀ form one (n·p, p) matrix, so the sum over i is a
    single matrix product.
    """
    rows = ft.reshape(-1, ft.shape[-1])
    return sym(rows.T @ (rows * weights.reshape(-1, 1)))


def _log_sum(x, bt, w, log_w):
    """Σᵢ log(X^{-1/2} Aᵢ X^{-1/2}) = −X^{-1/2} [Σᵢ Bᵢ D(wᵢ log wᵢ) Bᵢᵀ] X^{-1/2}.

    Bᵢ = Aᵢ^{1/2} Uᵢ (``bt`` holds the Bᵢᵀ) satisfies Bᵢ D(wᵢ) Bᵢᵀ = X,
    so X^{-1/2} Bᵢ D(wᵢ)^{1/2} is orthogonal and the congruence is the
    matrix logarithm of X^{-1/2} Aᵢ X^{-1/2} = (X^{-1/2} Bᵢ)(X^{-1/2} Bᵢ)ᵀ.
    x has passed :func:`_spectra`, so X^{-1/2} skips the symmetry check.
    """
    xi = _spectral_apply(sym(x), np.sqrt, "grad_sum", invert=True)
    return -sym(xi @ _sandwich(bt, w * log_w) @ xi)


def _karcher_terms(e: Ensemble, x):
    """Objective, gradient sum and surrogate coefficients at x.

    Returns ``(objective, grad_sum, c1, c2)`` from one stacked
    eigendecomposition Yᵢ = Uᵢ D(wᵢ) Uᵢᵀ of Aᵢ^{-1/2} X Aᵢ^{-1/2}:
    the objective is Σ (log w)², c1 = Σᵢ Aᵢ^{-1/2} Uᵢ D(g1(wᵢ)) Uᵢᵀ Aᵢ^{-1/2},
    c2 = Σᵢ Bᵢ D(g2(wᵢ)) Bᵢᵀ with Bᵢ = Aᵢ^{1/2} Uᵢ, and the gradient sum
    is the congruence form of :func:`_log_sum`, which reuses Bᵢ. x must
    be a validated p×p point.
    """
    w, u = _spectra(e, x)
    ut = np.swapaxes(u, 1, 2)
    bt = ut @ e.sqrts
    log_w = np.log(w)
    g1, g2 = _g12_values(w, log_w)
    return (_sum_sq(log_w), _log_sum(x, bt, w, log_w),
            _sandwich(ut @ e.inv_sqrts, g1), _sandwich(bt, g2))


def objective(e: Ensemble, x) -> float:
    """Sum of squared affine-invariant distances from x to the ensemble."""
    return _sum_sq(np.log(_spectra(e, _check_point(e, x), vectors=False)[0]))


def grad_sum(e: Ensemble, x) -> np.ndarray:
    """Unnormalized gradient sum Σᵢ log(x^{-1/2} Aᵢ x^{-1/2}).

    Its Frobenius norm is the convergence measure recorded by all
    solvers (the logarithmic-error quantity is its natural log).
    """
    x = _check_point(e, x)
    w, u = _spectra(e, x)
    return _log_sum(x, np.swapaxes(u, 1, 2) @ e.sqrts, w, np.log(w))


def grad_direction(e: Ensemble, x) -> np.ndarray:
    """Riemannian descent direction D = (1/n) Σᵢ log(x^{-1/2} Aᵢ x^{-1/2})."""
    return grad_sum(e, x) / e.n


def euclidean_gradient(e: Ensemble, x) -> np.ndarray:
    """Euclidean derivative of the objective at x.

    Each term transports 2 Y⁻¹ log Y (Y the congruence-transformed
    point) back through Aᵢ^{-1/2}; used by finite-difference validation,
    not by the solvers.
    """
    w, u = _spectra(e, _check_point(e, x))
    return _sandwich(np.swapaxes(u, 1, 2) @ e.inv_sqrts, 2.0 * np.log(w) / w)


def f1(e: Ensemble, x) -> np.ndarray:
    """Σᵢ Aᵢ^{-1/2} g1(Aᵢ^{-1/2} x Aᵢ^{-1/2}) Aᵢ^{-1/2}."""
    return _karcher_terms(e, _check_point(e, x))[2]


def f2(e: Ensemble, x) -> np.ndarray:
    """Σᵢ Aᵢ^{1/2} g2(Aᵢ^{-1/2} x Aᵢ^{-1/2}) Aᵢ^{1/2}."""
    return _karcher_terms(e, _check_point(e, x))[3]


def surrogate_coeffs(e: Ensemble, xp) -> SurrogateCoeffs:
    """Surrogate coefficients at the expansion point xp.

    c0 is fixed so the surrogate equals the objective at xp exactly,
    which makes the touching condition hold by construction.
    """
    xp = _check_point(e, xp)
    f_xp, _, c1, c2 = _karcher_terms(e, xp)
    c0 = f_xp - frob_inner(c1, xp) - frob_inner(c2, inv_m(xp))
    return SurrogateCoeffs(c1=c1, c2=c2, c0=c0)


def surrogate_value(s: SurrogateCoeffs, x) -> float:
    """Evaluate ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0."""
    x = np.asarray(x, dtype=float)
    return frob_inner(s.c1, x) + frob_inner(s.c2, inv_m(x)) + s.c0


def surrogate_minimizer(c1, c2) -> np.ndarray:
    """Closed-form minimizer of ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ over SPD X.

    The minimizer is the unique SPD root of the stationarity equation
    X c1 X = c2. With the Cholesky factor c2 = R Rᵀ and Rᵀ c1 R = V D Vᵀ
    it is X = (RV) D^{-1/2} (RV)ᵀ: one Cholesky factorization and one
    eigendecomposition, equal to c2^{1/2} (c2^{1/2} c1 c2^{1/2})^{-1/2}
    c2^{1/2} (:func:`spdmean.oracle.two_root_minimizer`). Both factors
    read the lower triangles of c1 and c2 only.

    Raises
    ------
    DomainError
        If c1 or c2 is not positive definite.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.shape != c2.shape:
        raise DimensionMismatch(f"shape mismatch: {c1.shape} vs {c2.shape}")
    try:
        r = np.linalg.cholesky(c2)
    except np.linalg.LinAlgError as exc:
        raise DomainError("surrogate_minimizer requires a positive definite c2") from exc
    w, v = eigh(r.T @ c1 @ r)
    if not np.all(w > 0):
        raise DomainError("surrogate_minimizer requires positive definite c1 and c2")
    rv = r @ v
    return sym((rv / np.sqrt(w)) @ rv.T)
