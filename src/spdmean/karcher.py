"""Karcher-mean objective, its descent direction, and the surrogate.

The objective is ``F(X) = Σᵢ ‖log(Aᵢ^{-1/2} X Aᵢ^{-1/2})‖_F²``. Each
iteration of the majorization-minimization scheme replaces F by the
surrogate ``G(X, X') = ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0`` built from the scalar
weights :func:`g1_scalar` / :func:`g2_scalar`, and minimizes G in closed
form (:func:`surrogate_minimizer`).

Every ensemble sum comes from one stacked eigendecomposition
(:func:`_frame_eigh`) in the frame of a factor G of X = G Gᵀ, where the
gradient and the surrogate coefficients are weighted sums of
eigenvectors. Two reductions read it: :func:`_frame_terms`, the MM
kernel, builds c̃1 and c̃2 as two Gram products and takes the gradient
as their difference; :func:`_frame_grad`, for GD and the gradient views,
builds the gradient alone in one product. All three solvers carry such a
factor; the public views evaluate the reductions at G = X^{1/2}. Sums
over i are single matrix products over the stack, so results are bitwise
reproducible for a given numpy and BLAS.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import spd_core
from .errors import DimensionMismatch, DomainError
from .spd_core import (_sqrt_pair, check_spd, check_spd_stack, check_symmetric, eigh, frob_inner,
                       inv_m, sym)


@dataclass(frozen=True)
class Ensemble:
    """The problem instance {A_1..A_n} with cached inverse factors.

    Attributes
    ----------
    mats : ndarray, shape (n, p, p)
        The SPD matrices A_i.
    inv_factors : ndarray, shape (n, p, p)
        Lᵢ⁻¹ = D(wᵢ)^{-1/2} Uᵢᵀ from Aᵢ = Uᵢ D(wᵢ) Uᵢᵀ, so that
        Lᵢ⁻ᵀ Lᵢ⁻¹ = Aᵢ⁻¹ and Lᵢ⁻¹ Aᵢ Lᵢ⁻ᵀ = I.
    """

    mats: np.ndarray
    inv_factors: np.ndarray = field(repr=False)

    @classmethod
    def from_matrices(cls, mats: Sequence[np.ndarray]) -> "Ensemble":
        """Validate each matrix as SPD and keep its inverse factor.

        Every error names the offending matrix by its index, e.g.
        ``matrix 1 is not symmetric``; the CLI prints it as is. The first
        bad matrix is reported; a dimension mismatch only when every
        matrix is SPD on its own.
        """
        if len(mats) == 0:
            raise DomainError("ensemble must contain at least one matrix")
        try:
            stack = np.asarray(mats, dtype=float)  # no copy: the check returns a fresh stack
        except ValueError:  # ragged
            stack = None
        if stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]:
            # no stack: the per-matrix checks or the dimension check raise
            arrs = [np.asarray(a, dtype=float) for a in mats]
            checked = [check_spd(a, name=f"matrix {i}") for i, a in enumerate(arrs)]
            for i, a in enumerate(checked):
                if a.shape[0] != checked[0].shape[0]:
                    raise DimensionMismatch(
                        f"matrix {i} has dim {a.shape[0]}, expected {checked[0].shape[0]}")
        stack, w, u = check_spd_stack(stack)
        return cls(mats=stack, inv_factors=np.swapaxes(u, 1, 2) / np.sqrt(w)[:, :, None])

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


def _frame_eigh(e: Ensemble, g, vectors=True):
    """:func:`eigh` of the Gram stack Ŷᵢ = (Lᵢ⁻¹G)ᵀ(Lᵢ⁻¹G) = Gᵀ Aᵢ⁻¹ G; all must be positive definite.

    The Ŷᵢ have the spectra of Aᵢ^{-1/2} X Aᵢ^{-1/2} for X = G Gᵀ.
    Returns the (n, p) ascending eigenvalues and, with ``vectors``, the
    (n, p, p) eigenvectors (else ``None``). The eigensolver reads the
    lower triangle only, so the stack is not symmetrized first. A NaN
    spectrum fails the positivity test; when a matrix of the stack is not
    finite, the error names the first one.
    """
    wm = e.inv_factors @ g
    y = wm.swapaxes(1, 2) @ wm
    w, u = eigh(y, vectors)
    if not w[:, 0].min() > 0:
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
    return math.fsum(np.square(log_w).ravel().tolist())


def _frame_objective(e: Ensemble, g) -> float:
    """The objective at X = G Gᵀ from the spectra of the Ŷᵢ alone."""
    return _sum_sq(np.log(_frame_eigh(e, g, vectors=False)[0]))


def _frame_grad(e: Ensemble, g):
    """Objective and gradient in the frame of G, without the coefficients.

    With X = G Gᵀ and the stacked eigendecomposition Ŷᵢ = Ûᵢ D(wᵢ) Ûᵢᵀ of
    :func:`_frame_eigh`, z = log w, returns ``(objective, gradient)``:
    the objective Σ z² and ĝ = −Σᵢ Ûᵢ D(zᵢ) Ûᵢᵀ
    = Qᵀ [Σᵢ log(X^{-1/2} Aᵢ X^{-1/2})] Q with Q = X^{-1/2} G orthogonal,
    so its Frobenius norm is that of :func:`grad_sum`, and at G = X^{1/2}
    (Q = I) it is :func:`grad_sum`. The rows of all Ûᵢᵀ form one
    (n·p, p) matrix, so the sum over i is one matrix product. GD uses
    this reduction: it never needs c̃1 and c̃2.
    """
    w, u = _frame_eigh(e, g)
    log_w = np.log(w)
    rows = u.swapaxes(1, 2).reshape(-1, g.shape[-1])
    return _sum_sq(log_w), -sym(rows.T @ (rows * log_w.reshape(-1, 1)))


def _frame_terms(e: Ensemble, g):
    """Objective, gradient and surrogate coefficients in the frame of G: the MM kernel.

    From the eigendecomposition of :func:`_frame_eigh`, with z = log w
    and r = √(z² + 1) + z = e^{asinh z} = w·g1(w) = w / g2(w), the
    surrogate coefficients for X̃ in X = G X̃ Gᵀ are
    c̃1 = Gᵀ c1 G = Σᵢ Ûᵢ D(rᵢ) Ûᵢᵀ and c̃2 = G⁻¹ c2 G⁻ᵀ = Σᵢ Ûᵢ D(1/rᵢ) Ûᵢᵀ,
    the two Gram matrices aᵀa of the (n·p, p) eigenvector rows scaled by
    √r and 1/√r. √r is taken as exp(asinh(z) / 2), which does not
    subtract for either sign of z. Since r − 1/r = 2z, the gradient of
    :func:`_frame_grad` is ĝ = (c̃2 − c̃1)/2, so no third product is
    needed; it serves MM only as the stopping test, and it agrees with
    :func:`_frame_grad` to round-off in c̃1 and c̃2.

    Returns ``(objective, gradient, c̃1, c̃2)``. G is not validated: the
    solvers check the start point once.
    """
    w, u = _frame_eigh(e, g)
    log_w = np.log(w)
    root_r = np.exp(0.5 * np.arcsinh(log_w))[:, :, None]
    rows = u.swapaxes(1, 2)
    a1 = np.multiply(rows, root_r, order="C").reshape(-1, g.shape[-1])
    a2 = np.divide(rows, root_r, order="C").reshape(-1, g.shape[-1])
    c1, c2 = a1.T @ a1, a2.T @ a2
    return _sum_sq(log_w), 0.5 * (c2 - c1), c1, c2


def _roots(e: Ensemble, x):
    """X^{1/2} and X^{-1/2} of the validated point x from one eigendecomposition.

    The views take G = X^{1/2}. A point with a non-finite entry or not
    symmetric is rejected by :func:`check_symmetric`, named ``point``.
    """
    x = check_symmetric(_check_point(e, x), name="point")
    return _sqrt_pair(x, "objective requires a positive definite point")


def objective(e: Ensemble, x) -> float:
    """Sum of squared affine-invariant distances from x to the ensemble."""
    return _frame_objective(e, _roots(e, x)[0])


def grad_sum(e: Ensemble, x) -> np.ndarray:
    """Unnormalized gradient sum Σᵢ log(x^{-1/2} Aᵢ x^{-1/2}).

    Its Frobenius norm is the convergence measure recorded by all
    solvers (the logarithmic-error quantity is its natural log).
    """
    return _frame_grad(e, _roots(e, x)[0])[1]


def euclidean_gradient(e: Ensemble, x) -> np.ndarray:
    """Euclidean derivative of the objective at x.

    Σᵢ Aᵢ^{-1/2} 2 Yᵢ⁻¹ log Yᵢ Aᵢ^{-1/2} with Yᵢ = Aᵢ^{-1/2} x Aᵢ^{-1/2},
    which equals −2 x^{-1/2} [:func:`grad_sum`] x^{-1/2}; used by
    finite-difference validation, not by the solvers.
    """
    s, si = _roots(e, x)
    return -2.0 * sym(si @ _frame_grad(e, s)[1] @ si)


def surrogate_coeffs(e: Ensemble, xp) -> SurrogateCoeffs:
    """Surrogate coefficients at the expansion point xp.

    c1 = X^{-1/2} c̃1 X^{-1/2} and c2 = X^{1/2} c̃2 X^{1/2}; c0 is fixed so
    the surrogate equals the objective at xp exactly, which makes the
    touching condition hold by construction.
    """
    s, si = _roots(e, xp)
    f_xp, _, c1, c2 = _frame_terms(e, s)
    c1, c2 = sym(si @ c1 @ si), sym(s @ c2 @ s)
    c0 = f_xp - frob_inner(c1, xp) - frob_inner(c2, inv_m(xp))
    return SurrogateCoeffs(c1=c1, c2=c2, c0=c0)


def surrogate_value(s: SurrogateCoeffs, x) -> float:
    """Evaluate ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0."""
    x = np.asarray(x, dtype=float)
    return frob_inner(s.c1, x) + frob_inner(s.c2, inv_m(x)) + s.c0


def surrogate_minimizer(c1, c2) -> np.ndarray:
    """Closed-form minimizer of ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ over SPD X.

    The minimizer is the unique SPD root of the stationarity equation
    X c1 X = c2, returned as F Fᵀ with F from :func:`_minimizer_factor`;
    it equals c2^{1/2} (c2^{1/2} c1 c2^{1/2})^{-1/2} c2^{1/2}
    (:func:`spdmean.oracle.two_root_minimizer`).

    Raises
    ------
    DomainError
        If c1 or c2 has a NaN or infinite entry or is not positive definite.
    """
    c1 = np.asarray(c1, dtype=float)
    c2 = np.asarray(c2, dtype=float)
    if c1.shape != c2.shape:
        raise DimensionMismatch(f"shape mismatch: {c1.shape} vs {c2.shape}")
    if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
        raise DomainError("surrogate_minimizer requires finite c1 and c2")
    f = _minimizer_factor(c1, c2)
    return f @ f.T


def _minimizer_factor(c1, c2):
    """A factor F of the surrogate minimizer X = F Fᵀ.

    With the Cholesky factor c2 = R Rᵀ and Rᵀ c1 R = V D Vᵀ, X c1 X = c2
    holds for X = (RV) D^{-1/2} (RV)ᵀ, so F = R V D^{-1/4}: one Cholesky
    factorization and one eigendecomposition, reading the lower
    triangles of c1 and c2 only. The eigenvalues come back ascending, so
    the positivity test reads the smallest, which a NaN fails. A
    non-positive-definite c1 or c2 raises :class:`DomainError`; a
    non-finite one is not tested for here, on the MM path, and may
    raise :class:`NonConvergence` instead.
    """
    r = spd_core.cholesky(c2, "surrogate_minimizer requires a positive definite c2")
    w, v = eigh(r.T @ c1 @ r)
    if not w[0] > 0:
        raise DomainError("surrogate_minimizer requires positive definite c1 and c2")
    return (r @ v) / np.sqrt(np.sqrt(w))
