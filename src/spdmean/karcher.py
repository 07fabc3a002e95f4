"""Karcher-mean objective, its descent direction, and the surrogate.

The objective is ``F(X) = Σᵢ ‖log(Aᵢ^{-1/2} X Aᵢ^{-1/2})‖_F²``. Each
iteration of the majorization-minimization scheme replaces F by the
surrogate ``G(X, X') = ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0`` built from the scalar
weights :func:`g1_scalar` / :func:`g2_scalar`, and minimizes G in closed
form (:func:`surrogate_minimizer`).

Every ensemble sum comes from one stacked eigendecomposition in the
frame of a factor G of X = G Gᵀ, where the gradient and the surrogate
coefficients are weighted sums of eigenvectors. The kernel is pass,
then reduce. :func:`_frame_eigh` alone runs the pass and returns
``(objective, z, Û)``; two reductions take that triple and call no
eigensolver: :func:`_frame_terms`, the MM kernel, builds c̃1 and c̃2 as
two Gram products and takes the gradient as their difference;
:func:`_frame_grad`, for GD and the gradient views, builds the gradient
alone in one product. A caller writes ``reduction(_frame_eigh(e, g))``,
so it can read z and Û first and keeps no pass after its reduction.
All three solvers carry such a factor; the public views take the
factor that validating their point takes (:func:`grad_sum`,
G = X^{1/2}). Sums over i are single matrix products over the stack, so
results are bitwise reproducible for a given numpy and BLAS.
"""

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import spd_core
from .errors import DimensionMismatch, DomainError, NonConvergence
from .spd_core import check_dims, check_spd, check_spd_stack, eigh, frob_inner, sym


@dataclass(frozen=True)
class Ensemble:
    """The problem instance {A_1..A_n} with cached inverse factors.

    Attributes
    ----------
    mats : ndarray, shape (n, p, p)
        The SPD matrices A_i.
    inv_factors : ndarray, shape (n, p, p)
        Fᵢ⁻¹ for the factor Aᵢ = Fᵢ Fᵢᵀ that validation takes
        (:func:`spdmean.spd_core.check_spd_stack`), so that
        Fᵢ⁻ᵀ Fᵢ⁻¹ = Aᵢ⁻¹ and Fᵢ⁻¹ Aᵢ Fᵢ⁻ᵀ = I: the inverse of the lower
        Cholesky factor Lᵢ by blocked forward substitution, whose diagonal
        blocks are inverted together over the whole stack
        (``np.linalg.inv`` for dim ≤ ``spd_core.TRI_BLOCK``), or
        D(wᵢ)^{-1/2} Uᵢᵀ where the stack has no Cholesky factor in float64.
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
            stack = np.asarray(mats)  # the check reads the dtype, then converts
        except ValueError:  # ragged
            stack = None
        if (stack is None or stack.ndim != 3 or stack.shape[1] != stack.shape[2]
                or stack is not mats
                and any(np.asarray(a).dtype.kind not in spd_core.REAL_KINDS for a in mats)):
            # no stack, or one that upcast a matrix of another dtype (a bool
            # one to float): the per-matrix checks or the dimension check raise
            checked = [check_spd(a, name=f"matrix {i}") for i, a in enumerate(mats)]
            for i, a in enumerate(checked):
                if a.shape[0] != checked[0].shape[0]:
                    raise DimensionMismatch(
                        f"matrix {i} has dim {a.shape[0]}, expected {checked[0].shape[0]}")
        stack, _, inv_factors = check_spd_stack(stack)
        return cls(mats=stack, inv_factors=inv_factors)

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


def _point(e: Ensemble, x):
    """(X, F, F⁻¹), F Fᵀ = X, of a point x of the ensemble's dim that passes :func:`check_spd`."""
    x = np.asarray(x)
    if x.shape != (e.dim, e.dim):
        raise DimensionMismatch(f"point has shape {x.shape}, ensemble dim is {e.dim}")
    return spd_core._check_spd_factor(x, "point")


def g1_scalar(x: float) -> float:
    """Weight g1(x) = (√((log x)² + 1) + log x) / x for x > 0.

    The branch with log x < 0 is evaluated through the reciprocal form
    1 / (x (√(z²+1) − z)) so no cancellation occurs and
    ``g1_scalar(x) * g2_scalar(x) == 1`` to machine precision.
    """
    x = _weight_arg(x, "g1")
    z = np.log(x)
    s = np.sqrt(z * z + 1.0)
    if z >= 0:
        return float((s + z) / x)
    return float(1.0 / (x * (s - z)))


def g2_scalar(x: float) -> float:
    """Weight g2(x) = (√((log x)² + 1) − log x) · x for x > 0; g2 = 1/g1."""
    x = _weight_arg(x, "g2")
    z = np.log(x)
    s = np.sqrt(z * z + 1.0)
    if z <= 0:
        return float((s - z) * x)
    return float(x / (s + z))


def _weight_arg(x, weight):
    """``x`` as a float once it is a positive finite real number; DomainError naming x otherwise."""
    if not spd_core._positive_finite(x):
        raise DomainError(f"{weight} requires x to be a positive finite real number, got {x!r}")
    return float(x)


def _frame_eigh(e: Ensemble, g, vectors=True):
    """The pass over the Gram stack Ŷᵢ = (Fᵢ⁻¹G)ᵀ(Fᵢ⁻¹G) = Gᵀ Aᵢ⁻¹ G; all must be positive definite.

    The Ŷᵢ have the spectra of Aᵢ^{-1/2} X Aᵢ^{-1/2} for X = G Gᵀ. With
    the stacked eigendecomposition Ŷᵢ = Ûᵢ D(wᵢ) Ûᵢᵀ, returns the
    objective Σ z², the (n, p) z = log w and, with ``vectors``, the
    (n, p, p) eigenvectors Û (else ``None``). The eigensolver reads the
    lower triangle only, so the stack is not symmetrized first. A NaN
    spectrum fails the positivity test and an infinite one the finite
    objective test; when a matrix of the stack is not finite, the error
    names the first one, also where the eigensolver fails on it.
    """
    wm = e.inv_factors @ g
    y = wm.swapaxes(1, 2) @ wm
    del wm  # the eigensolver holds y and Û: two (n, p, p) stacks, not three
    try:
        w, u = eigh(y, vectors)
        if w[:, 0].min() > 0:
            z = np.log(w)
            f_val = _sum_sq(z)
            if f_val < math.inf:  # an infinite eigenvalue passes the test above
                return f_val, z, u
    except NonConvergence:
        if np.isfinite(y).all():
            raise
    finite = np.isfinite(y).all(axis=(1, 2))
    if not finite.all():
        raise DomainError(f"A^(-1/2) X A^(-1/2) overflows float64 for matrix "
                          f"{int(np.argmin(finite))}")
    raise DomainError("objective requires a positive definite point")


def _sum_sq(log_w):
    """Σ (log w)², summed exactly.

    Line-search GD compares objectives that differ by a few ulps near
    convergence; an exact sum does not depend on the summation order,
    and its smaller rounding noise lets fewer runs stall there.
    """
    return math.fsum(np.square(log_w).ravel().tolist())


def _frame_objective(e: Ensemble, g) -> float:
    """The objective at X = G Gᵀ from the spectra of the Ŷᵢ alone."""
    return _frame_eigh(e, g, vectors=False)[0]


def _frame_grad(frame):
    """Objective and gradient in the frame of G, without the coefficients.

    From the pass ``(objective, z, Û)`` of :func:`_frame_eigh` at X = G Gᵀ,
    Ŷᵢ = Ûᵢ D(wᵢ) Ûᵢᵀ, z = log w, returns ``(objective, gradient)``:
    the objective Σ z² and ĝ = −Σᵢ Ûᵢ D(zᵢ) Ûᵢᵀ
    = Qᵀ [Σᵢ log(X^{-1/2} Aᵢ X^{-1/2})] Q with Q = X^{-1/2} G orthogonal,
    so its Frobenius norm is that of :func:`grad_sum`, and at G = X^{1/2}
    (Q = I) it is :func:`grad_sum`. The rows of all Ûᵢᵀ form one
    (n·p, p) matrix, so the sum over i is one matrix product. GD uses
    this reduction: it never needs c̃1 and c̃2.
    """
    f_val, z, u = frame
    rows = u.swapaxes(1, 2).reshape(-1, u.shape[-1])
    del frame, u  # frees a temporary pass's Û: the rows (a copy) and their scaled copy are held
    return f_val, -sym(rows.T @ (rows * z.reshape(-1, 1)))


def _frame_terms(frame):
    """Objective, gradient and surrogate coefficients in the frame of G: the MM kernel.

    From the pass ``(objective, z, Û)`` of :func:`_frame_eigh`, with z = log w
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
    f_val, z, u = frame
    root_r = np.exp(0.5 * np.arcsinh(z))[:, :, None]
    rows = u.swapaxes(1, 2)
    # each scaled copy of the rows is freed before the next is made: Û and one copy
    c1 = _gram(np.multiply(rows, root_r, order="C"))
    c2 = _gram(np.divide(rows, root_r, order="C"))
    return f_val, 0.5 * (c2 - c1), c1, c2


def _gram(rows):
    """aᵀa for the (n·p, p) matrix a of the rows of an (n, p, p) stack."""
    a = rows.reshape(-1, rows.shape[-1])
    return a.T @ a


# The views do not warn on overflow: the kernel's guards, and _finite on a view's value, raise.
@np.errstate(over="ignore")
def objective(e: Ensemble, x) -> float:
    """Sum of squared affine-invariant distances from x to the ensemble."""
    return _frame_objective(e, _point(e, x)[1])


@np.errstate(over="ignore")
def grad_sum(e: Ensemble, x) -> np.ndarray:
    """Unnormalized gradient sum Σᵢ log(x^{-1/2} Aᵢ x^{-1/2}).

    Its Frobenius norm is the convergence measure recorded by all
    solvers (the logarithmic-error quantity is its natural log); it is
    the frame gradient at G = X^{1/2}.
    """
    return _frame_grad(_frame_eigh(e, spd_core._eig_apply(_point(e, x)[0], np.sqrt)))[1]


@np.errstate(over="ignore", invalid="ignore")
def euclidean_gradient(e: Ensemble, x) -> np.ndarray:
    """Euclidean derivative of the objective at x.

    Σᵢ Aᵢ^{-1/2} 2 Yᵢ⁻¹ log Yᵢ Aᵢ^{-1/2} with Yᵢ = Aᵢ^{-1/2} x Aᵢ^{-1/2},
    which equals −2 x^{-1/2} [:func:`grad_sum`] x^{-1/2} = −2 F⁻ᵀ ĝ F⁻¹
    at the point's factor F; used by finite-difference validation only.
    """
    _, f, f_inv = _point(e, x)
    return spd_core._finite(-2.0 * sym(f_inv.T @ _frame_grad(_frame_eigh(e, f))[1] @ f_inv),
                            "euclidean gradient at point")


@np.errstate(over="ignore", invalid="ignore")
def surrogate_coeffs(e: Ensemble, xp) -> SurrogateCoeffs:
    """Surrogate coefficients at the expansion point xp.

    c1 = F⁻ᵀ c̃1 F⁻¹ and c2 = F c̃2 Fᵀ at the point's factor F; c0, not finite
    where they are not, is fixed so the surrogate equals the objective at
    xp exactly, which makes the touching condition hold by construction.
    """
    xp, f, f_inv = _point(e, xp)
    f_xp, _, c1, c2 = _frame_terms(_frame_eigh(e, f))
    c1, c2 = sym(f_inv.T @ c1 @ f_inv), sym(f @ c2 @ f.T)
    c0 = f_xp - frob_inner(c1, xp) - frob_inner(c2, f_inv.T @ f_inv)
    spd_core._finite(c0, "surrogate at point")
    return SurrogateCoeffs(c1=c1, c2=c2, c0=c0)


@np.errstate(over="ignore", invalid="ignore")
def surrogate_value(s: SurrogateCoeffs, x) -> float:
    """Evaluate ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ + c0 at the point x, with X⁻¹ = F⁻ᵀ F⁻¹ from its factor."""
    x, _, f_inv = spd_core._check_spd_factor(x, "point")
    c1, c2 = spd_core._real(s.c1, "c1"), spd_core._real(s.c2, "c2")
    return spd_core._finite(frob_inner(c1, x) + frob_inner(c2, f_inv.T @ f_inv) + s.c0,
                            "surrogate value at point")


@np.errstate(over="ignore", invalid="ignore")
def surrogate_minimizer(c1, c2) -> np.ndarray:
    """Closed-form minimizer of ⟨c1, X⟩ + ⟨c2, X⁻¹⟩ over SPD X.

    The minimizer is the unique SPD root of the stationarity equation
    X c1 X = c2, returned as F Fᵀ with F from :func:`_minimizer_factor`;
    it equals c2^{1/2} (c2^{1/2} c1 c2^{1/2})^{-1/2} c2^{1/2}.

    Raises
    ------
    DimensionMismatch, DomainError
        If c1 or c2 fails :func:`spdmean.spd_core.check_spd`, their shapes
        differ, or c2^(1/2) c1 c2^(1/2) overflows float64.
    """
    c1 = check_spd(c1, "c1")
    c2, r, _ = spd_core._check_spd_factor(c2, "c2")
    check_dims(c1, c2)
    f = _minimizer_factor(c1, r)
    return f @ f.T


def _minimizer_factor(c1, r):
    """A factor F of the surrogate minimizer X = F Fᵀ, given a factor R with R Rᵀ = c2.

    With Rᵀ c1 R = V D Vᵀ, X c1 X = c2 holds for X = (RV) D^{-1/2} (RV)ᵀ,
    so F = R V D^{-1/4}: one eigendecomposition, reading the lower
    triangle of Rᵀ c1 R only. The eigenvalues come back ascending, so
    the positivity test reads the smallest, which a NaN fails. Only when
    the test fails, or the eigensolver does, is Rᵀ c1 R tested for
    overflow, as in :func:`_frame_eigh`: an overflow raises a
    :class:`DomainError` that names it, a non-positive-definite c1 one
    that says so.
    """
    m = r.T @ c1 @ r
    try:
        w, v = eigh(m)
        if w[0] > 0:
            return (r @ v) / np.sqrt(np.sqrt(w))
    except NonConvergence:
        if np.isfinite(m).all():
            raise
    spd_core._finite(m, "c2^(1/2) c1 c2^(1/2)")
    raise DomainError("surrogate_minimizer requires positive definite c1 and c2")
