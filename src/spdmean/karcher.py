"""Karcher-mean objective, its descent direction, and the surrogate.

The objective is ``F(X) = Σᵢ ‖log(Aᵢ^{-1/2} X Aᵢ^{-1/2})‖_F²``. Each
iteration of the majorization-minimization scheme replaces F by the
surrogate ``G(X, X') = ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0`` built from the scalar
weights :func:`g1_scalar` / :func:`g2_scalar`, and minimizes G in closed
form (:func:`surrogate_minimizer`).

All ensemble sums are reduced in ascending matrix index order so results
are bitwise reproducible.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError
from .spd_core import (
    check_spd,
    frob_inner,
    inv_m,
    inv_sqrt_m,
    sqrt_m,
    sym,
    sym_eig,
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
        ``matrix 1 is not symmetric``; the CLI prints it as is.
        """
        if len(mats) == 0:
            raise DomainError("ensemble must contain at least one matrix")
        checked = [check_spd(a, name=f"matrix {i}") for i, a in enumerate(mats)]
        p = checked[0].shape[0]
        for i, a in enumerate(checked):
            if a.shape[0] != p:
                raise DimensionMismatch(
                    f"matrix {i} has dim {a.shape[0]}, expected {p}")
        stack = np.array(checked)
        return cls(
            mats=stack,
            sqrts=np.array([sqrt_m(a) for a in checked]),
            inv_sqrts=np.array([inv_sqrt_m(a) for a in checked]),
        )

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


def _g12_values(w):
    """Vectorized (g1, g2) on a positive spectrum, cancellation-safe."""
    if np.any(w <= 0):
        raise DomainError("g1/g2 require a positive definite argument")
    z = np.log(w)
    s = np.sqrt(z * z + 1.0)
    g1 = np.where(z >= 0, (s + z) / w, 1.0 / (w * (s - z)))
    g2 = np.where(z <= 0, (s - z) * w, w / (s + z))
    return g1, g2


def objective(e: Ensemble, x) -> float:
    """Sum of squared affine-invariant distances from x to the ensemble."""
    x = _check_point(e, x)
    total = 0.0
    for i in range(e.n):
        si = e.inv_sqrts[i]
        w = np.linalg.eigvalsh(sym(si @ x @ si))
        if w[0] <= 0:
            raise DomainError("objective requires a positive definite point")
        total += float(np.sum(np.log(w) ** 2))
    return total


def grad_sum(e: Ensemble, x) -> np.ndarray:
    """Unnormalized gradient sum Σᵢ log(x^{-1/2} Aᵢ x^{-1/2}).

    Its Frobenius norm is the convergence measure recorded by all
    solvers (the logarithmic-error quantity is its natural log).
    """
    x = _check_point(e, x)
    xi = inv_sqrt_m(x)
    acc = np.zeros_like(x)
    for i in range(e.n):
        u, w = sym_eig(sym(xi @ e.mats[i] @ xi))
        if w[-1] <= 0:
            raise DomainError("gradient requires a positive definite point")
        acc = acc + sym((u * np.log(w)) @ u.T)
    return sym(acc)


def grad_direction(e: Ensemble, x) -> np.ndarray:
    """Riemannian descent direction D = (1/n) Σᵢ log(x^{-1/2} Aᵢ x^{-1/2})."""
    return grad_sum(e, x) / e.n


def euclidean_gradient(e: Ensemble, x) -> np.ndarray:
    """Euclidean derivative of the objective at x.

    Each term transports 2 Y⁻¹ log Y (Y the congruence-transformed
    point) back through Aᵢ^{-1/2}; used by finite-difference validation,
    not by the solvers.
    """
    x = _check_point(e, x)
    acc = np.zeros_like(x)
    for i in range(e.n):
        si = e.inv_sqrts[i]
        u, w = sym_eig(sym(si @ x @ si))
        if w[-1] <= 0:
            raise DomainError("gradient requires a positive definite point")
        inner = sym((u * (2.0 * np.log(w) / w)) @ u.T)
        acc = acc + si @ inner @ si
    return sym(acc)


def _f12(e: Ensemble, x):
    """Both surrogate coefficient matrices from one decomposition per term."""
    x = _check_point(e, x)
    c1 = np.zeros_like(x)
    c2 = np.zeros_like(x)
    for i in range(e.n):
        si = e.inv_sqrts[i]
        u, w = sym_eig(sym(si @ x @ si))
        g1w, g2w = _g12_values(w)
        c1 = c1 + si @ sym((u * g1w) @ u.T) @ si
        s = e.sqrts[i]
        c2 = c2 + s @ sym((u * g2w) @ u.T) @ s
    return sym(c1), sym(c2)


def f1(e: Ensemble, x) -> np.ndarray:
    """Σᵢ Aᵢ^{-1/2} g1(Aᵢ^{-1/2} x Aᵢ^{-1/2}) Aᵢ^{-1/2}."""
    return _f12(e, x)[0]


def f2(e: Ensemble, x) -> np.ndarray:
    """Σᵢ Aᵢ^{1/2} g2(Aᵢ^{-1/2} x Aᵢ^{-1/2}) Aᵢ^{1/2}."""
    return _f12(e, x)[1]


def surrogate_coeffs(e: Ensemble, xp) -> SurrogateCoeffs:
    """Surrogate coefficients at the expansion point xp.

    c0 is fixed so the surrogate equals the objective at xp exactly,
    which makes the touching condition hold by construction.
    """
    xp = _check_point(e, xp)
    c1, c2 = _f12(e, xp)
    c0 = objective(e, xp) - frob_inner(c1, xp) - frob_inner(c2, inv_m(xp))
    return SurrogateCoeffs(c1=c1, c2=c2, c0=c0)


def surrogate_value(s: SurrogateCoeffs, x) -> float:
    """Evaluate ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0."""
    x = np.asarray(x, dtype=float)
    return frob_inner(s.c1, x) + frob_inner(s.c2, inv_m(x)) + s.c0


def surrogate_minimizer(c1, c2) -> np.ndarray:
    """Closed-form minimizer of ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ over SPD X.

    Returns ``c2^{1/2} (c2^{1/2} c1 c2^{1/2})^{-1/2} c2^{1/2}``, the root
    of the stationarity equation c1 − X⁻¹ c2 X⁻¹ = 0.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.shape != c2.shape:
        raise DimensionMismatch(f"shape mismatch: {c1.shape} vs {c2.shape}")
    s2 = sqrt_m(c2)
    return sym(s2 @ inv_sqrt_m(sym(s2 @ c1 @ s2)) @ s2)
