"""Core primitives for symmetric positive definite (SPD) matrices.

Dense symmetric eigendecomposition, the package's one Cholesky
factorization, matrix functions through the eigenvalues, and the
affine-invariant geodesic and distance. All functions take and return
plain ``numpy`` arrays; SPD inputs are validated with :func:`check_spd`
at API boundaries.
"""

import numbers
import sys

import numpy as np

from .errors import DimensionMismatch, DomainError, NonConvergence

# Validation tolerances (relative).
SYM_TOL = 1e-12
POSITIVITY_FLOOR = 1e-13
# Block width of the triangular inverse of the Cholesky factors.
TRI_BLOCK = 16
# The dtype kinds taken as real numbers: float, signed and unsigned int.
REAL_KINDS = "fiu"


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


def _is_a(value, kind) -> bool:
    """Whether ``value`` is a number of the ABC ``kind``; bool is not a number."""
    return not isinstance(value, bool) and isinstance(value, kind)


def _python(value):
    """A numpy scalar as its Python value (np.float32(0.5) is 0.5), anything else as is."""
    return value.item() if isinstance(value, np.generic) else value


def _positive_finite(value) -> bool:
    """Whether ``value`` is a real number in (0, float64 max]; bool, NaN and 10**400 are not."""
    return _is_a(value, numbers.Real) and 0 < _python(value) <= sys.float_info.max


def _exponent(t, fn):
    """``t`` as a float once it is a finite real number; DomainError naming ``fn`` and t otherwise."""
    if not (_is_a(t, numbers.Real) and abs(_python(t)) <= sys.float_info.max):
        raise DomainError(f"{fn} requires t to be a finite real number, got {t!r}")
    return float(t)


def _real(a, name):
    """``a`` as a float array, once its dtype kind is one of ``REAL_KINDS``.

    Any other dtype is refused before the conversion, which would drop a
    complex entry's imaginary part with a ComplexWarning, take a bool as
    0 or 1 and parse a string such as "2" (:func:`_not_real`).
    """
    a = np.asarray(a)
    if a.dtype.kind not in REAL_KINDS:
        raise _not_real(a, name)
    return np.asarray(a, dtype=float)


def _not_real(a, name):
    """The DomainError for an array whose dtype :func:`_real` refuses: complex or non-numeric."""
    return DomainError(f"{name} has a {'complex' if a.dtype.kind == 'c' else 'non-numeric'} entry")


def check_symmetric(a, name="matrix"):
    """Validate finite entries and near-symmetry; return the symmetrized matrix.

    ``name`` is how error messages refer to ``a``.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected {name} to be square, got shape {a.shape}")
    out, finite, symmetric, _ = _symmetrized(a[None], lambda i: name)
    if finite is not None and not finite[0]:
        raise DomainError(f"{name} has a non-finite entry")
    if not symmetric[0]:
        raise DomainError(f"{name} is not symmetric")
    return out[0]


def _scales(mats):
    """max |entry| of each matrix of a (k, p, p) stack; NaN where one is NaN."""
    return np.maximum.reduce(np.abs(mats), axis=(1, 2), initial=0.0)


def _symmetrized(mats, name_of):
    """The tests of a (k, p, p) stack that come before positivity, and sym(A).

    Refuses every dtype :func:`_real` refuses, read before any float
    conversion, and 0×0 matrices. A complex stack names its first matrix
    with an imaginary part, any other its first. Returns
    ``(sym(A), finite, symmetric, norms)``: which
    matrices are finite (``None`` when all are; the others are zeroed),
    which have ‖A − Aᵀ‖_F ≤ ``SYM_TOL``·‖A‖_F, and each ‖A‖_F. Where every
    max |entry| lies in (1e-100, 1e100), the common case, the squared sums
    can neither overflow nor lose the skew part, and one ``half = A/2``
    serves the test, as 4‖half − halfᵀ‖² = ‖A − Aᵀ‖², and sym(A) =
    half + halfᵀ. Any other matrix is divided by its max |entry| for the
    test and the norm, so the test holds at any float64 scale.
    """
    mats = np.asarray(mats)
    if mats.dtype.kind not in REAL_KINDS:
        first = mats.imag.any(axis=(1, 2)).argmax() if mats.dtype.kind == "c" else 0
        raise _not_real(mats, name_of(int(first)))
    mats = np.asarray(mats, dtype=float)
    if mats.shape[-1] == 0:
        raise DimensionMismatch(f"expected {name_of(0)} to be at least 1x1, "
                                f"got shape {mats.shape[1:]}")
    top = _scales(mats)
    finite = scale = None
    if not (top.min() > 1e-100 and top.max() < 1e100):
        finite = top < np.inf
        if not finite.all():
            mats = np.where(finite[:, None, None], mats, 0.0)
            top = np.where(finite, top, 0.0)
        plain = (top > 1e-100) & (top < 1e100)
        scale = np.where(plain | (top == 0), 1.0, top)[:, None, None]
    scaled = mats if scale is None else mats / scale
    half = scaled * 0.5
    sq = _sq_norms(scaled)
    symmetric = _sq_norms(half - half.swapaxes(1, 2)) <= 0.25 * SYM_TOL * SYM_TOL * sq
    norms = np.sqrt(sq)
    if scale is not None:
        half = mats * 0.5
        with np.errstate(over="ignore"):
            norms *= scale[:, 0, 0]
    return half + half.swapaxes(1, 2), finite, symmetric, norms


def _sq_norms(mats):
    """‖A‖_F² of each matrix of a (k, p, p) stack, as one stacked dot product."""
    v = mats.reshape(len(mats), 1, -1)
    return (v @ v.swapaxes(1, 2))[:, 0, 0]


def check_spd(a, name="matrix"):
    """Validate that ``a`` is SPD; returns the symmetrized matrix.

    Positivity uses a relative floor: the smallest eigenvalue must exceed
    ``POSITIVITY_FLOOR`` times the largest, so the check survives rescaling.
    The test runs as in :func:`check_spd_stack`: a Cholesky factor with a
    small enough inverse passes it without an eigendecomposition.
    ``name`` is how error messages refer to ``a``.

    Raises
    ------
    DimensionMismatch
        If ``a`` is not a square matrix, or is 0×0.
    DomainError
        If ``a`` is complex, has a NaN or infinite entry, is not symmetric, or
        its smallest eigenvalue is not above ``POSITIVITY_FLOOR`` times the largest.
    """
    return _check_spd_factor(a, name)[0]


def _check_spd_factor(a, name="matrix"):
    """:func:`check_spd`, also returning the factor F, with F Fᵀ = A, that validation took, and F⁻¹.

    F is that of :func:`check_spd_stack`: the lower Cholesky factor, or U D(w)^{1/2}.
    """
    a = np.asarray(a)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"expected {name} to be square, got shape {a.shape}")
    mats, factors, inv_factors = check_spd_stack(a[None], lambda i: name)
    return mats[0], factors[0], inv_factors[0]


def check_spd_stack(mats, name_of=lambda i: f"matrix {i}"):
    """Validate a (k, p, p) stack as SPD and factor it with one stacked Cholesky.

    Each matrix gets the tests of :func:`check_spd`. The first matrix
    that fails one raises, with the first test it fails in the order
    non-finite, symmetric, positive definite; ``name_of(i)`` names
    matrix i in the message. A complex stack and 0×0 matrices are
    refused first (:func:`_symmetrized`).

    The positivity test is w₀ > ``POSITIVITY_FLOOR``·|w_max| on the
    eigenvalues from :func:`eigh`. With the Cholesky factor Aᵢ = LᵢLᵢᵀ,
    w₀ ≥ 1/‖Lᵢ⁻¹‖_F² and w_max ≤ ‖Aᵢ‖_F, so a matrix with
    ‖Lᵢ⁻¹‖_F²·‖Aᵢ‖_F < 1/(10·``POSITIVITY_FLOOR``) passes it, with a
    margin of ten for rounding, and is not decomposed; a bound that
    overflows clears nothing. The pass returns as soon as the bound
    clears every matrix of a symmetric stack, the common case. The
    matrices it does not clear get the eigenvalue test itself, and a
    stack with no Cholesky factor in float64 is decomposed whole, so
    every decision, message and first bad index is that of the
    eigenvalue test alone. The Lᵢ⁻¹ come from :func:`_tri_inv`, a
    blocked forward substitution that inverts the diagonal blocks of
    the whole stack together (``np.linalg.inv`` itself for
    p ≤ ``TRI_BLOCK``).

    Returns
    -------
    (mats, factors, inv_factors)
        The symmetrized stack, factors Fᵢ with Fᵢ Fᵢᵀ = Aᵢ, and their
        inverses Fᵢ⁻¹, so that Fᵢ⁻ᵀ Fᵢ⁻¹ = Aᵢ⁻¹. Fᵢ is the lower Cholesky
        factor Lᵢ, or, where the stack has none in float64, Uᵢ D(wᵢ)^{1/2}
        from the eigendecomposition Aᵢ = Uᵢ D(wᵢ) Uᵢᵀ of the test.
    """
    mats, finite, symmetric, norms = _symmetrized(mats, name_of)
    try:
        factors = cholesky(mats, "stack has no Cholesky factor")
    except DomainError:  # as for a zeroed non-finite matrix: every matrix gets the test
        factors = None
        exact = np.ones(len(mats), dtype=bool)
    else:
        inv_factors = _tri_inv(factors)
        with np.errstate(over="ignore"):
            clear = _sq_norms(inv_factors) * norms < 0.1 / POSITIVITY_FLOOR
        if (clear & symmetric).all():
            return mats, factors, inv_factors
        exact = ~clear
    positive = np.ones(len(mats), dtype=bool)
    w0 = np.zeros(len(mats))
    if exact.any():
        # with vectors: eigvalsh's eigenvalues differ from eigh's at round-off,
        # which decides the test near condition 1 / POSITIVITY_FLOOR
        w, u = eigh(mats[exact])
        w0[exact] = w[:, 0]
        positive[exact] = w[:, 0] > POSITIVITY_FLOOR * np.abs(w[:, -1])
    ok = symmetric & positive
    if not ok.all():
        i = int(ok.argmin())
        if finite is not None and not finite[i]:
            raise DomainError(f"{name_of(i)} has a non-finite entry")
        if not symmetric[i]:
            raise DomainError(f"{name_of(i)} is not symmetric")
        raise DomainError(f"{name_of(i)} is not positive definite "
                          f"(eigenvalue {w0[i]:.6g})")
    if factors is None:
        root = np.sqrt(w)
        factors, inv_factors = u * root[:, None, :], np.swapaxes(u, 1, 2) / root[:, :, None]
    return mats, factors, inv_factors


def _tri_inv(l):
    """Inverse of each lower triangular matrix of a (k, p, p) stack.

    Block forward substitution over block rows of width ``TRI_BLOCK``:
    block row i of X = L⁻¹ is Dᵢ = Lᵢᵢ⁻¹ on the diagonal and
    −Dᵢ (L[i, :i] X[:i, :i]) left of it, as stacked products. The full
    diagonal blocks of all k matrices are inverted together, as one
    stack, by :func:`_lower_inv` (a partial last block as a second), so
    X is exactly lower triangular. This is about a third of the
    floating-point work of an LU inverse, and as accurate (Du Croz &
    Higham, IMA J. Numer. Anal. 12, 1992). For p ≤ ``TRI_BLOCK`` the
    result is ``np.linalg.inv(l)`` itself, which is faster there.

    The block stacks are views of L and X (:func:`_diag_blocks`),
    inverted in place, so no block is copied.
    """
    p = l.shape[-1]
    if p <= TRI_BLOCK:
        return np.linalg.inv(l)
    b, m = TRI_BLOCK, p // TRI_BLOCK
    x = np.zeros_like(l)
    _lower_inv(_diag_blocks(l, b, m), _diag_blocks(x, b, m))
    if m * b < p:
        _lower_inv(l[:, m * b:, m * b:], x[:, m * b:, m * b:])
    for s in range(b, p, b):
        e = min(s + b, p)
        x[:, s:e, :s] = -(x[:, s:e, s:e] @ (l[:, s:e, :s] @ x[:, :s, :s]))
    return x


def _diag_blocks(a, b, m):
    """The first m b×b diagonal blocks of each matrix of a (k, p, p) stack, as an (m, k, b, b) view."""
    sk, sr, sc = a.strides
    return np.lib.stride_tricks.as_strided(a, (m, len(a), b, b), (b * (sr + sc), sk, sr, sc))


def _lower_inv(l, x):
    """Write into x, which is 0, the inverse of each lower triangular matrix of a (..., b, b) stack.

    Forward substitution: row i of X = L⁻¹ is −(L[i, :i] X[:i, :i])/L[i, i]
    left of the diagonal and 1/L[i, i] on it, b stacked row products,
    each times the reciprocal diagonal. The upper triangle stays exactly 0.
    """
    r = 1.0 / np.diagonal(l, axis1=-2, axis2=-1)
    for i in range(l.shape[-1]):
        x[..., i, :i] = (l[..., i:i + 1, :i] @ x[..., :i, :i])[..., 0, :] * -r[..., i:i + 1]
        x[..., i, i] = r[..., i]


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


def _eig_apply(m, fvals_of, spd_valued=True):
    """Rebuild U diag(f(λ)) Uᵀ from a vectorized eigenvalue map.

    The raw path: ``m`` must already be symmetric and is not validated.
    A non-finite f(λ) or result raises :class:`DomainError`, without a
    warning; where the result must be SPD (``spd_valued``), so does an
    f(λ) that is not positive, such as a power that underflows to 0.
    """
    w, u = eigh(m)
    with np.errstate(all="ignore"):
        fw = fvals_of(w)
        out = sym((u * fw) @ u.T)
    return _checked_rebuild(fw, out, spd_valued)


def _finite(value, what):
    """``value``, once every entry is finite; DomainError(``what`` overflows float64) otherwise."""
    if not np.isfinite(value).all():
        raise DomainError(f"{what} overflows float64")
    return value


def _checked_rebuild(fw, out, spd_valued=True):
    """``out``, rebuilt from the values ``fw``, once both are finite (and ``fw`` positive)."""
    if not (np.isfinite(fw).all() and np.isfinite(out).all()):
        raise DomainError("scalar function not finite on the spectrum")
    if spd_valued and not fw.min() > 0:
        raise DomainError("scalar function not positive on the spectrum")
    return out


def log_m(a):
    """Matrix logarithm of an SPD matrix."""
    return _eig_apply(check_spd(a), np.log, spd_valued=False)


def exp_m(a):
    """Matrix exponential of a symmetric matrix."""
    return _eig_apply(check_symmetric(a), np.exp)


def sqrt_m(a):
    """Principal square root of an SPD matrix."""
    return pow_m(a, 0.5)


def inv_sqrt_m(a):
    """Inverse principal square root of an SPD matrix."""
    return pow_m(a, -0.5)


def inv_m(a):
    """Inverse of an SPD matrix via its eigendecomposition."""
    return pow_m(a, -1.0)


def pow_m(a, t):
    """Real matrix power ``a**t`` of an SPD matrix, for a finite real ``t``."""
    t = _exponent(t, "pow_m")
    return _eig_apply(check_spd(a), lambda w: w**t)


def frob_inner(a, b):
    """Frobenius inner product ⟨A, B⟩ = Σᵢⱼ Aᵢⱼ Bᵢⱼ = tr(A Bᵀ) of two real arrays."""
    a, b = _real(a, "a"), _real(b, "b")
    check_dims(a, b)
    return float(np.sum(a * b))


def _checked_pair(x1, x2):
    """F₁ and a finite W = F₁⁻¹F₂ from the factors Fₖ Fₖᵀ = xₖ that :func:`check_spd` takes.

    W Wᵀ = F₁⁻¹ x2 F₁⁻ᵀ has the spectrum of x1^{-1/2} x2 x1^{-1/2}.
    """
    _, f1, f1_inv = _check_spd_factor(x1, "x1")
    f2 = _check_spd_factor(x2, "x2")[1]
    check_dims(f1, f2)
    with np.errstate(over="ignore"):
        w = f1_inv @ f2
    return f1, _finite(w, "x1^(-1/2) x2 x1^(-1/2)")


def geodesic(x1, x2, t):
    """Point at parameter ``t`` on the affine-invariant geodesic from x1 to x2.

    Computes ``x1^{1/2} (x1^{-1/2} x2 x1^{-1/2})^t x1^{1/2}`` as H Hᵀ, H = F₁ P D(σᵗ)
    from the SVD W = P D(σ) Qᵀ (:func:`_checked_pair`): W Wᵀ, which can underflow
    where W does not, is never formed. ``t=0`` returns x1, ``t=1`` x2, ``t=1/2``
    the two-matrix geometric mean; ``t`` must be a finite real number.
    """
    t = _exponent(t, "geodesic")
    f1, w = _checked_pair(x1, x2)
    p, sigma, _ = np.linalg.svd(w)
    with np.errstate(all="ignore"):
        fw = sigma**t
        h = (f1 @ p) * fw
        out = sym(h @ h.T)
    return _checked_rebuild(fw, out)


def riem_dist(x1, x2):
    """Affine-invariant Riemannian distance between two SPD matrices.

    ``dist(x1, x2) = ‖log(x1^{-1/2} x2 x1^{-1/2})‖_F``; symmetric in its
    arguments and invariant under congruence ``X ↦ M X Mᵀ``. Computed as
    2‖log σ(W)‖ (:func:`_checked_pair`), which squares neither W nor its condition.
    """
    sigma = np.linalg.svd(_checked_pair(x1, x2)[1], compute_uv=False)
    return 2.0 * float(np.linalg.norm(np.log(sigma)))
