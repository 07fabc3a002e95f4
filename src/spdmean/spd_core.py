"""Core primitives for symmetric positive definite (SPD) matrices.

Dense symmetric eigendecomposition, matrix functions through the
eigenvalues, and the affine-invariant geodesic and distance. All
functions take and return plain ``numpy`` arrays; SPD inputs are
validated with :func:`check_spd` at API boundaries.
"""

import numpy as np

from .errors import DimensionMismatch, DomainError, NonConvergence

# Validation tolerances (relative).
SYM_TOL = 1e-12
ORTHO_TOL = 1e-10
RECON_TOL = 1e-10
POSITIVITY_FLOOR = 1e-13


def sym(a):
    """Symmetrize a square matrix, or each matrix of a stack, as (A + Aᵀ)/2.

    Both halves are taken before adding, so entries near the float64
    maximum do not overflow; for entries above about 1e-307 in magnitude
    the result is bitwise that of (A + Aᵀ)/2, since halving is exact.
    """
    half = a * 0.5
    return half + np.swapaxes(half, -1, -2)


def check_dims(a, b):
    if a.shape != b.shape:
        raise DimensionMismatch(f"shape mismatch: {a.shape} vs {b.shape}")


def check_symmetric(a, tol=SYM_TOL, name="matrix"):
    """Validate near-symmetry and return the symmetrized matrix.

    ``name`` is how error messages refer to ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected {name} to be square, got shape {a.shape}")
    if _skewed(a[None], tol)[0]:
        raise DomainError(f"{name} is not symmetric")
    return sym(a)


def _skewed(mats, tol):
    """Which matrices of a (k, p, p) stack have ‖A − Aᵀ‖_F > tol · ‖A‖_F.

    Where ‖A‖_F falls outside (1e-100, 1e100), squaring the entries may
    have overflowed or lost the skew part to underflow; both norms are
    then taken again of A divided by its largest |entry|, which leaves
    their ratio unchanged, so the test holds at any float64 scale.
    """
    def norms(m):
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            return (np.linalg.norm(m - np.swapaxes(m, 1, 2), axis=(1, 2)),
                    np.linalg.norm(m, axis=(1, 2)))

    skew, size = norms(mats)
    if not 1e-100 < np.minimum.reduce(size) <= np.maximum.reduce(size) < 1e100:
        redo = ~((size > 1e-100) & (size < 1e100))
        m = mats[redo]
        top = np.max(np.abs(m), axis=(1, 2))
        skew[redo], size[redo] = norms(m / np.where(top > 0, top, 1.0)[:, None, None])
    return skew > tol * size


def check_spd(a, tol=SYM_TOL, name="matrix"):
    """Validate that ``a`` is SPD; returns the symmetrized matrix.

    Positivity uses a relative floor: the smallest eigenvalue must exceed
    ``POSITIVITY_FLOOR`` times the largest, so the check survives rescaling.
    ``name`` is how error messages refer to ``a``.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not a square matrix.
    DomainError
        If ``a`` has a NaN or infinite entry, is not symmetric, or has a
        non-positive eigenvalue.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected {name} to be square, got shape {a.shape}")
    return check_spd_stack(a[None], tol, lambda i: name)[0][0]


def check_spd_stack(mats, tol=SYM_TOL, name_of=lambda i: f"matrix {i}"):
    """Validate a (k, p, p) stack as SPD with one stacked eigendecomposition.

    Each matrix gets the tests of :func:`check_spd`. The first matrix
    that fails one raises, with the first test it fails in the order
    non-finite, symmetric, positive definite; ``name_of(i)`` names
    matrix i in the message.

    Returns
    -------
    (mats, w, u)
        The symmetrized stack and its eigendecomposition from
        :func:`eigh`, eigenvalues ascending.
    """
    mats = np.asarray(mats, dtype=float)
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0.0)
    skew = _skewed(mats, tol)
    mats = sym(mats)
    w, u = eigh(mats)
    weak = w[:, 0] <= POSITIVITY_FLOOR * np.abs(w[:, -1])
    bad = np.flatnonzero(~finite | skew | weak)
    if bad.size:
        i = int(bad[0])
        if not finite[i]:
            raise DomainError(f"{name_of(i)} has a non-finite entry")
        if skew[i]:
            raise DomainError(f"{name_of(i)} is not symmetric")
        raise DomainError(f"{name_of(i)} is not positive definite "
                          f"(eigenvalue {w[i, 0]:.6g})")
    return mats, w, u


def eigh(m, vectors=True):
    """Ascending eigenvalues (and eigenvectors) of a symmetric matrix or stack.

    ``np.linalg.eigh``, or ``np.linalg.eigvalsh`` without ``vectors``
    (the vectors are then ``None``), with no validation of the input; a
    LAPACK failure is raised as :class:`NonConvergence`.
    """
    try:
        if vectors:
            return np.linalg.eigh(m)
        return np.linalg.eigvalsh(m), None
    except np.linalg.LinAlgError as exc:
        raise NonConvergence(f"symmetric eigensolver failed: {exc}") from exc


def sym_eig(m):
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    Parameters
    ----------
    m : ndarray, shape (p, p)
        Symmetric matrix (validated to ``SYM_TOL`` and symmetrized first).

    Returns
    -------
    (vectors, values)
        Orthogonal ``vectors`` and descending ``values`` with
        ``vectors @ diag(values) @ vectors.T == m`` up to round-off.
    """
    return _desc_eig(check_symmetric(m))


def _desc_eig(m):
    w, u = eigh(m)
    return np.ascontiguousarray(u[:, ::-1]), w[::-1].copy()


def _eig_apply(m, fvals_of, positive=None, invert=False):
    """Rebuild U diag(f(λ)) Uᵀ from a vectorized eigenvalue map.

    The raw path: ``m`` must already be symmetric and is not validated;
    the public matrix functions validate with :func:`check_symmetric`
    first. ``positive`` names the calling function when f needs a positive
    definite argument; the spectrum is then checked for positivity,
    otherwise f(λ) is checked for finite values. ``invert`` rebuilds
    U diag(1/f(λ)) Uᵀ instead, dividing rather than multiplying by a
    reciprocal.
    """
    u, w = _desc_eig(m)
    if positive is not None and w[-1] <= 0:
        raise DomainError(f"{positive} requires a positive definite matrix "
                          f"(eigenvalue {w[-1]:.6g})")
    fw = fvals_of(w)
    if positive is None and not np.all(np.isfinite(fw)):
        raise DomainError("scalar function not finite on the spectrum")
    return sym(((u / fw) if invert else (u * fw)) @ u.T)


def log_m(a):
    """Matrix logarithm of an SPD matrix."""
    return _eig_apply(check_symmetric(a), np.log, "log_m")


def exp_m(a):
    """Matrix exponential of a symmetric matrix."""
    return _eig_apply(check_symmetric(a), np.exp)


def sqrt_m(a):
    """Principal square root of an SPD matrix."""
    return _eig_apply(check_symmetric(a), np.sqrt, "sqrt_m")


def inv_sqrt_m(a):
    """Inverse principal square root of an SPD matrix."""
    return _eig_apply(check_symmetric(a), np.sqrt, "inv_sqrt_m", invert=True)


def inv_m(a):
    """Inverse of an SPD matrix via its eigendecomposition."""
    return _eig_apply(check_symmetric(a), lambda w: w, "inv_m", invert=True)


def pow_m(a, t):
    """Real matrix power ``a**t`` of an SPD matrix."""
    return _eig_apply(check_symmetric(a), lambda w: w**float(t), "pow_m")


def frob_inner(a, b):
    """Frobenius inner product ⟨A, B⟩ = Σᵢⱼ Aᵢⱼ Bᵢⱼ = tr(A Bᵀ)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    check_dims(a, b)
    return float(np.sum(a * b))


def geodesic(x1, x2, t):
    """Point at parameter ``t`` on the affine-invariant geodesic from x1 to x2.

    Computes ``x1^{1/2} (x1^{-1/2} x2 x1^{-1/2})^t x1^{1/2}``; ``t=0``
    returns x1, ``t=1`` returns x2, ``t=1/2`` is the two-matrix geometric
    mean.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    check_dims(x1, x2)
    s = sqrt_m(x1)
    si = inv_sqrt_m(x1)
    return sym(s @ pow_m(sym(si @ x2 @ si), t) @ s)


def riem_dist(x1, x2):
    """Affine-invariant Riemannian distance between two SPD matrices.

    ``dist(x1, x2) = ‖log(x1^{-1/2} x2 x1^{-1/2})‖_F``; symmetric in its
    arguments and invariant under congruence ``X ↦ M X Mᵀ``.
    """
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    check_dims(x1, x2)
    si = inv_sqrt_m(x1)
    w = np.linalg.eigvalsh(sym(si @ x2 @ si))
    if w[0] <= 0:
        raise DomainError("riem_dist requires positive definite inputs")
    return float(np.linalg.norm(np.log(w)))
