"""Core primitives for symmetric positive definite (SPD) matrices.

Dense symmetric eigendecomposition, the package's one Cholesky
factorization, matrix functions through the eigenvalues, and the
affine-invariant geodesic and distance. All functions take and return
plain ``numpy`` arrays; SPD inputs are validated with :func:`check_spd`
at API boundaries.
"""

import numpy as np

from .errors import DimensionMismatch, DomainError, NonConvergence

# Validation tolerances (relative).
SYM_TOL = 1e-12
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


def check_symmetric(a, name="matrix"):
    """Validate finite entries and near-symmetry; return the symmetrized matrix.

    ``name`` is how error messages refer to ``a``.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected {name} to be square, got shape {a.shape}")
    top = _scales(a[None])
    if not top[0] < np.inf:
        raise DomainError(f"{name} has a non-finite entry")
    if not _symmetric(a[None], top)[0]:
        raise DomainError(f"{name} is not symmetric")
    return sym(a)


def _scales(mats):
    """max |entry| of each matrix of a (k, p, p) stack; NaN where one is NaN."""
    return np.maximum.reduce(np.abs(mats), axis=(1, 2), initial=0.0)


def _symmetric(mats, top):
    """Which matrices of a finite (k, p, p) stack have ‖A − Aᵀ‖_F ≤ SYM_TOL · ‖A‖_F.

    ``top`` holds each matrix's :func:`_scales`. Where it lies in
    (1e-100, 1e100) the squared sums can neither overflow nor lose the
    skew part to underflow, and ‖A − Aᵀ‖² is compared with SYM_TOL² ‖A‖²
    directly. Any other matrix is first divided by its largest |entry|,
    which leaves the ratio of the norms unchanged, so the test holds at
    any float64 scale.
    """
    plain = (top > 1e-100) & (top < 1e100)
    if not plain.all():
        mats = mats / np.where(plain | (top == 0), 1.0, top)[:, None, None]
    return _sq_norms(mats - mats.swapaxes(1, 2)) <= SYM_TOL * SYM_TOL * _sq_norms(mats)


def _sq_norms(mats):
    """‖A‖_F² of each matrix of a (k, p, p) stack, as one stacked dot product."""
    v = mats.reshape(len(mats), 1, -1)
    return (v @ v.swapaxes(1, 2))[:, 0, 0]


def check_spd(a, name="matrix"):
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
    return check_spd_stack(a[None], lambda i: name)[0][0]


def check_spd_stack(mats, name_of=lambda i: f"matrix {i}"):
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
    top = _scales(mats)
    finite = top < np.inf
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0.0)
        top = np.where(finite, top, 0.0)
    symmetric = _symmetric(mats, top)
    mats = sym(mats)
    w, u = eigh(mats)
    # a zeroed non-finite matrix fails the positivity test, and so does a NaN spectrum
    ok = symmetric & (w[:, 0] > POSITIVITY_FLOOR * np.abs(w[:, -1]))
    if not ok.all():
        i = int(ok.argmin())
        if not finite[i]:
            raise DomainError(f"{name_of(i)} has a non-finite entry")
        if not symmetric[i]:
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


def cholesky(a, message):
    """Lower Cholesky factor of ``a``, unvalidated; DomainError(message) if it has none."""
    try:
        return np.linalg.cholesky(a)
    except np.linalg.LinAlgError as exc:
        raise DomainError(message) from exc


def _eig_apply(m, fvals_of, positive=None, invert=False, spd_valued=True):
    """Rebuild U diag(f(λ)) Uᵀ from a vectorized eigenvalue map.

    The raw path: ``m`` must already be symmetric and is not validated;
    the public matrix functions validate with :func:`check_symmetric`
    first. ``positive`` names the calling function when f needs a positive
    definite argument; the spectrum is then checked for positivity. A
    non-finite f(λ) or result raises :class:`DomainError`, without a
    warning. ``invert`` rebuilds U diag(1/f(λ)) Uᵀ instead, dividing
    rather than multiplying by a reciprocal. A function that must return
    an SPD matrix (``spd_valued``) also raises where an f(λ) is finite but
    not positive, such as an exponential or power that underflows to 0.
    """
    w, u = eigh(m)
    if positive is not None and not w[0] > 0:
        raise DomainError(f"{positive} requires a positive definite matrix "
                          f"(eigenvalue {w[0]:.6g})")
    with np.errstate(all="ignore"):
        fw = fvals_of(w)
        out = sym(((u / fw) if invert else (u * fw)) @ u.T)
    if not (np.isfinite(fw).all() and np.isfinite(out).all()):
        raise DomainError("scalar function not finite on the spectrum")
    if spd_valued and not fw.min() > 0:
        raise DomainError("scalar function not positive on the spectrum")
    return out


def _sqrt_pair(x, message):
    """X^{1/2}, X^{-1/2} of symmetric x from one eigh; DomainError(message) unless x > 0."""
    w, u = eigh(x)
    if not w[0] > 0:
        raise DomainError(message)
    root = np.sqrt(w)
    return sym((u * root) @ u.T), sym((u / root) @ u.T)


def log_m(a):
    """Matrix logarithm of an SPD matrix."""
    return _eig_apply(check_symmetric(a), np.log, "log_m", spd_valued=False)


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


def _checked_pair(x1, x2):
    """Both points of :func:`geodesic` or :func:`riem_dist`, of one shape, finite and symmetric."""
    x1 = np.asarray(x1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    check_dims(x1, x2)
    return check_symmetric(x1, name="x1"), check_symmetric(x2, name="x2")


def geodesic(x1, x2, t):
    """Point at parameter ``t`` on the affine-invariant geodesic from x1 to x2.

    Computes ``x1^{1/2} (x1^{-1/2} x2 x1^{-1/2})^t x1^{1/2}``; ``t=0``
    returns x1, ``t=1`` returns x2, ``t=1/2`` is the two-matrix geometric
    mean.
    """
    x1, x2 = _checked_pair(x1, x2)
    s, si = _sqrt_pair(x1, "geodesic requires a positive definite x1")
    return sym(s @ _eig_apply(sym(si @ x2 @ si), lambda w: w**float(t), "geodesic") @ s)


def riem_dist(x1, x2):
    """Affine-invariant Riemannian distance between two SPD matrices.

    ``dist(x1, x2) = ‖log(x1^{-1/2} x2 x1^{-1/2})‖_F``; symmetric in its
    arguments and invariant under congruence ``X ↦ M X Mᵀ``.
    """
    x1, x2 = _checked_pair(x1, x2)
    si = _sqrt_pair(x1, "riem_dist requires positive definite inputs")[1]
    w, _ = eigh(sym(si @ x2 @ si), vectors=False)
    if not w[0] > 0:
        raise DomainError("riem_dist requires positive definite inputs")
    return float(np.linalg.norm(np.log(w)))
