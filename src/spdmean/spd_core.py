"""Core primitives for symmetric positive definite (SPD) matrices.

Dense symmetric eigendecomposition, the package's one Cholesky
factorization, matrix functions through the eigenvalues, and the
affine-invariant geodesic and distance. All functions take and return
plain ``numpy`` arrays. One converter, :func:`_real`, reads every matrix
argument and refuses a ragged or (where one is needed) non-square one and
any entry that is not a real number; SPD inputs are then validated with
:func:`check_spd` at API boundaries.
"""

import numbers
import sys
from collections.abc import Sequence

import numpy as np

from .errors import DimensionMismatch, DomainError, NonConvergence

# Validation tolerances (relative).
SYM_TOL = 1e-12
POSITIVITY_FLOOR = 1e-13
# Block width of the triangular inverse of the Cholesky factors.
TRI_BLOCK = 16
# The largest bordered stack, in bytes, that :func:`_cholesky_pair` factors in one call:
# at p = 5-16, past 250-500 KB, forward substitution takes L⁻¹ faster (one BLAS thread).
BORDER_BYTES = 1 << 18
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


def _finite_real(value) -> bool:
    """Whether ``value`` is a real number, not a bool, and finite in float64."""
    return _is_a(value, numbers.Real) and abs(_python(value)) <= sys.float_info.max


def _real_number(value, message, positive=True) -> float:
    """``value`` as a float once it passes :func:`_finite_real` and, where ``positive``,
    is above 0; DomainError(``message``) otherwise."""
    if _finite_real(value) and (float(value) > 0 or not positive):
        return float(value)
    raise DomainError(message)


def _whole_number(value, message, least=1) -> int:
    """``value`` as an int once it is an integer, not a bool, >= ``least``; else DomainError(``message``)."""
    if _is_a(value, numbers.Integral) and value >= least:
        return int(value)
    raise DomainError(message)


def _real(a, name, square=False):
    """``a``, read once, as a float array of real numbers (:func:`_real_entries`).

    Refuses, naming ``name``, in this order: a ragged or too deeply nested sequence and, where
    ``square``, anything but a square matrix (DimensionMismatch); then a complex or non-numeric
    entry (DomainError), before the conversion could drop an imaginary part with a ComplexWarning,
    take a bool as 0 or 1 or parse "2"; then, where ``square``, a 0×0 matrix (DimensionMismatch).
    """
    try:
        arr = np.asarray(a)
    except ValueError as exc:  # numpy's "inhomogeneous shape", or "… maximum number of dimension"
        fault = ("nested deeper than numpy's maximum number of dimensions"
                 if "maximum number of dimension" in str(exc) else "a ragged nested sequence")
        raise DimensionMismatch(f"{name} is {fault}") from exc
    if square and (arr.ndim != 2 or arr.shape[0] != arr.shape[1]):
        raise DimensionMismatch(f"expected {name} to be square, got shape {arr.shape}")
    if not _real_entries(arr, a):
        kind = "complex" if arr.dtype.kind == "c" else "non-numeric"
        raise DomainError(f"{name} has a {kind} entry")
    if square and arr.size == 0:
        raise DimensionMismatch(f"expected {name} to be at least 1x1, got shape {arr.shape}")
    return np.asarray(arr, dtype=float)


def _real_finite(a, name, square=False):
    """:func:`_real`, once every entry is finite; DomainError naming ``name`` otherwise."""
    return _finite(_real(a, name, square), f"{name} has a non-finite entry")


def _real_entries(arr, a) -> bool:
    """Whether the array ``arr``, read from ``a``, holds real numbers only: its dtype kind is one of
    ``REAL_KINDS`` and it is no wider than float64, or it is an object array (as numpy reads an int
    beyond uint64) or a wider float one whose every entry passes :func:`_finite_real`. numpy reads
    [2, True] as [2, 1], so an ``a`` that is not an array is walked through every nested sequence
    but a string; a bool, or an array (a memoryview read as one) that fails the test, refuses it."""
    todo = [arr] if isinstance(a, np.ndarray) else [a, arr]
    while todo:
        entry = todo.pop()
        if isinstance(entry, (np.ndarray, memoryview)):
            entry = np.asarray(entry)
            narrow = entry.dtype.kind in REAL_KINDS and entry.dtype.itemsize <= 8
            if not narrow and not (entry.dtype.kind in "fO" and all(map(_finite_real, entry.flat))):
                return False
        elif isinstance(entry, (bool, np.bool_)):
            return False
        elif not isinstance(entry, (float, int, str, bytes)) and isinstance(entry, Sequence):
            todo.extend(entry)
    return True


def check_symmetric(a, name="matrix"):
    """Validate finite entries and near-symmetry; return the symmetrized matrix.

    ``name`` is how error messages refer to ``a``.
    """
    out, _, symmetric = _symmetrized(_real_finite(a, name, square=True)[None])
    if not symmetric[0]:
        raise DomainError(f"{name} is not symmetric")
    return out[0]


def _scales(mats):
    """max |entry| of each matrix of a (k, p, p) stack; NaN where one is NaN."""
    return np.maximum.reduce(np.abs(mats), axis=(1, 2), initial=0.0)


def _unit(mats, top=None):
    """The one exact rescaling: ``(4⁻ʲ·A, j)`` for each matrix A of a finite (k, p, p) stack,
    j = ``np.frexp(max|a|)[1] // 2``, which puts max |entry| in [1/2, 2) (0 stays 0).

    ``top`` is the stack's :func:`_scales`, where the caller has them (j is 0 where one is not
    finite). A power of four scales the eigenvalues by 4⁻ʲ and their square roots by 2⁻ʲ.
    """
    j = np.frexp(_scales(mats) if top is None else top)[1] // 2
    return np.ldexp(mats, -2 * j[:, None, None]), j


def _symmetrized(mats):
    """The tests of a float (k, p, p) stack, p ≥ 1, that come before positivity, and sym(A).

    Names and refuses nothing. Returns ``(sym(A), top, symmetric)``: each
    matrix's max |entry| (:func:`_scales`; inf or NaN where it is not
    finite, and then the matrix is zeroed), and which matrices have
    ‖A − Aᵀ‖_F ≤ ``SYM_TOL``·‖A‖_F. A finite stack equal to its transpose,
    the common case, passes that test at any scale and is not measured.
    Any other stack is measured on :func:`_unit` of the stack U, max |entry|
    in [1/2, 2), scaled exactly, so the test decides alike at every
    power-of-two scale of a matrix, and ‖U − Uᵀ‖² can neither overflow nor
    lose the skew part. sym(A) = half + halfᵀ with ``half = A/2`` on both
    paths, which turns a −0.0 whose mirror is +0.0 into +0.0.
    """
    top = _scales(mats)
    finite = top < np.inf
    if not finite.all():
        mats = np.where(finite[:, None, None], mats, 0.0)
    elif (mats == mats.swapaxes(1, 2)).all():
        half = mats * 0.5
        return half + half.swapaxes(1, 2), top, finite
    unit = _unit(mats, top)[0]
    symmetric = _sq_norms(unit - unit.swapaxes(1, 2)) <= SYM_TOL * SYM_TOL * _sq_norms(unit)
    half = mats * 0.5
    return half + half.swapaxes(1, 2), top, symmetric


def _sq_norms(mats):
    """‖A‖_F² of each matrix of a (k, p, p) stack, as one stacked dot product."""
    v = mats.reshape(len(mats), 1, -1)
    return (v @ v.swapaxes(1, 2))[:, 0, 0]


def check_spd(a, name="matrix"):
    """Validate that ``a`` is SPD; returns the symmetrized matrix.

    Positivity uses a relative floor: the smallest eigenvalue must exceed
    ``POSITIVITY_FLOOR`` times the largest, so the check survives rescaling,
    and exactly so: it reads ``a`` at an exact power-of-two scale, and
    2ʲ·``a`` gets ``a``'s decision for every j. The tests run as in
    :func:`check_spd_stack`: an ``a`` equal to its transpose is symmetric
    without a norm being taken, and a Cholesky factor with a small enough
    inverse passes positivity without an eigendecomposition.
    ``name`` is how error messages refer to ``a``.

    Raises
    ------
    DimensionMismatch
        If ``a`` is a ragged or too deeply nested sequence, is not a square matrix, or is 0×0.
    DomainError
        If ``a`` has a complex, non-numeric (:func:`_real`) or non-finite entry, is not
        symmetric, or its smallest eigenvalue is not above ``POSITIVITY_FLOOR`` times the largest.
    """
    return _check_spd_factor(a, name)[0]


def _check_spd_factor(a, name="matrix"):
    """:func:`check_spd`, also returning the factor F, with F Fᵀ = A, that validation took, and F⁻¹.

    F is that of :func:`check_spd_stack`: the lower Cholesky factor, or U D(w)^{1/2}.
    """
    mats, factors, inv_factors = check_spd_stack(_real(a, name, square=True)[None], lambda i: name)
    return mats[0], factors[0], inv_factors[0]


def check_spd_stack(mats, name_of=lambda i: f"matrix {i}", *, _keep_factors=True):
    """Validate a sequence of k matrices as SPD; factor them by one stacked Cholesky.

    :func:`_stack` reads ``mats``: anything but a sequence of matrices, or none, is a
    DomainError, and what :func:`_real` does not read as one real (k, p, p) stack, p ≥ 1,
    is checked matrix by matrix. Then each matrix gets the tests of :func:`check_spd` in one
    pass; the first that fails one raises, with the first test it fails in the order
    non-finite, symmetric, positive definite. ``name_of(i)`` names matrix i in every message.
    A finite stack equal to its transpose, as every stack the package builds is, passes the
    symmetry test by that one comparison; any other stack is measured on :func:`_unit` of it,
    at every scale alike (:func:`_symmetrized`).

    The positivity test is w₀ > ``POSITIVITY_FLOOR``·|w_max| on the eigenvalues from
    :func:`eigh`. With the Cholesky factor Aᵢ = LᵢLᵢᵀ, w₀ ≥ 1/‖Lᵢ⁻¹‖_F² and
    |w_max| ≤ ‖Aᵢ‖_F ≤ p·max|aⱼₗ|, so a matrix with ‖Lᵢ⁻¹‖_F²·p·max|aⱼₗ| <
    1/(10·``POSITIVITY_FLOOR``) passes it, with a margin of ten for rounding, and is not
    decomposed; a bound that overflows clears nothing. The pass returns as soon as the bound
    clears every matrix of a symmetric stack, the common case. The matrices it does not clear,
    or all of a stack with no Cholesky factor in float64, get the eigenvalue test itself, so
    every decision, message and first bad index is that of the eigenvalue test alone. A stack
    with an ‖Lᵢ⁻¹‖_F² that overflows is taken as one with no factor on every LAPACK build, as
    a build that tests its pivots for NaN refuses its bordered factorization. The test reads
    4⁻ʲAᵢ, max |entry| in [1/2, 2) (:func:`_unit`), an exact scaling, so it decides alike at
    every power-of-two scale of a matrix; 4ʲ scales back the eigenvalue a refusal names, and 2ʲ
    the square roots of the spectral factors, which so stay normal where Aᵢ is subnormal.
    The Lᵢ and Lᵢ⁻¹ come from :func:`_cholesky_pair`: one bordered Cholesky factorization
    for a small stack, else the factor and :func:`_tri_inv`, a blocked forward substitution.

    Internal: with ``_keep_factors=False``, for a caller that keeps only the
    Fᵢ⁻¹, the Cholesky factors are returned as ``None`` and no stack is kept for them.

    Returns
    -------
    (mats, factors, inv_factors)
        The symmetrized stack, factors Fᵢ with Fᵢ Fᵢᵀ = Aᵢ, and their
        inverses Fᵢ⁻¹, so that Fᵢ⁻ᵀ Fᵢ⁻¹ = Aᵢ⁻¹. Fᵢ is the lower Cholesky
        factor Lᵢ, or, where the stack has none in float64 or some ‖Lᵢ⁻¹‖_F²
        overflows, Uᵢ D(wᵢ)^{1/2} from the eigendecomposition Aᵢ = Uᵢ D(wᵢ) Uᵢᵀ
        of the test.
    """
    mats, top, symmetric = _symmetrized(_stack(mats, name_of))
    try:
        factors, inv_factors = _cholesky_pair(mats, keep=_keep_factors)
    except DomainError:  # as for a zeroed non-finite matrix: every matrix gets the test
        factors = inv_factors = None
    else:
        with np.errstate(over="ignore"):
            sq = _sq_norms(inv_factors)
            clear = sq * mats.shape[-1] * top < 0.1 / POSITIVITY_FLOOR
        if (clear & symmetric).all():
            return mats, factors, inv_factors
        if not (sq < np.inf).all():  # as where the bordered factorization's NaN pivot is refused
            factors = inv_factors = None
    test = np.arange(len(mats)) if inv_factors is None else np.flatnonzero(~clear)
    unit, j = _unit(mats[test], top[test])
    # with vectors: eigvalsh's eigenvalues differ from eigh's at round-off,
    # which decides the test near condition 1 / POSITIVITY_FLOOR
    w, u = eigh(unit)
    ok = symmetric.copy()
    ok[test] &= w[:, 0] > POSITIVITY_FLOOR * np.abs(w[:, -1])
    if not ok.all():
        i = int(ok.argmin())
        if not top[i] < np.inf:
            raise DomainError(f"{name_of(i)} has a non-finite entry")
        if not symmetric[i]:
            raise DomainError(f"{name_of(i)} is not symmetric")
        t = test.searchsorted(i)
        raise DomainError(f"{name_of(i)} is not positive definite "
                          f"(eigenvalue {np.ldexp(w[t, 0], 2 * j[t]):.6g})")
    if inv_factors is None:
        root = np.ldexp(np.sqrt(w), j[:, None])
        factors, inv_factors = u * root[:, None, :], np.swapaxes(u, 1, 2) / root[:, :, None]
    return mats, factors, inv_factors


def _stack(mats, name_of):
    """``mats`` as a float (k, p, p) array for the stacked pass, or the error of its first bad
    matrix. A sequence of matrices is an ndarray of at least one dimension (a memoryview is read
    as one) or a ``Sequence`` but a string or bytes; anything else, or no matrix, is a DomainError.
    What :func:`_real` does not read as one real (k, p, p) array, p ≥ 1, gets :func:`check_spd`
    per matrix, then the dimension check; a complex array first names its first non-real matrix."""
    if not (mats.ndim if isinstance(mats, (np.ndarray, memoryview))
            else isinstance(mats, Sequence) and not isinstance(mats, (str, bytes))):
        raise DomainError(f"expected a sequence of matrices, got {type(mats).__name__}")
    mats = np.asarray(mats) if isinstance(mats, memoryview) else mats
    if len(mats) == 0:
        raise DomainError("expected at least one matrix, got none")
    try:
        stack = _real(mats, "the stack")
        if stack.ndim == 3 and stack.shape[1] == stack.shape[2] > 0:
            return stack
    except (DimensionMismatch, DomainError):  # ragged or not real: read matrix by matrix below
        if (isinstance(mats, np.ndarray) and mats.dtype.kind == "c" and mats.ndim == 3
                and mats.shape[1] == mats.shape[2]):
            first = int(mats.imag.any(axis=(1, 2)).argmax())
            _real(mats[first], name_of(first))
    checked = [check_spd(a, name_of(i)) for i, a in enumerate(mats)]
    for i, a in enumerate(checked):
        if a.shape != checked[0].shape:
            raise DimensionMismatch(f"{name_of(i)} has dim {len(a)}, expected {len(checked[0])}")
    return np.array(checked)  # all pass with one shape, as in a 1-d object array of matrices


def _cholesky_pair(mats, keep=True):
    """(L, L⁻¹) for the lower Cholesky factor Lᵢ of each matrix of a symmetric (k, p, p) stack;
    DomainError where the stack has none in float64. L is ``None`` unless ``keep``.

    For p ≤ ``TRI_BLOCK`` and a bordered stack of at most ``BORDER_BYTES``, one
    :func:`cholesky` call factors the bordered Mᵢ = [[Aᵢ, ·], [I, ∞·I]] (only the lower
    triangle is read), whose factor is [[Lᵢ, 0], [Lᵢ⁻ᵀ, ·]]: its lower-left block comes
    from the forward substitution Xᵢ Lᵢᵀ = I inside the factorization, exactly upper
    triangular. L is a view of that factor and L⁻¹ a copy, so a caller that keeps only L⁻¹
    (an ensemble) does not hold the bordered stack, four times its size. Neither reads the
    trailing block, which is thrown away: ∞ on its diagonal and 0 below it, or NaN where
    Lᵢ⁻ᵀLᵢ⁻¹ overflows, which a LAPACK that tests its pivots for NaN refuses as no factor
    (:func:`check_spd_stack` takes such a stack as one with no factor on every build).
    A finite corner makes the updates of that block subnormal, and slow. Past that size L⁻¹
    is :func:`_tri_inv` of the factor, faster there, written over it unless ``keep``.
    """
    k, p = mats.shape[:2]
    if p <= TRI_BLOCK and 32 * k * p * p <= BORDER_BYTES:
        m = np.zeros((k, 2 * p, 2 * p))
        m[:, :p, :p] = mats
        flat = m.reshape(k, -1)  # entry (p + i, j) of Mᵢ is flat[2p(p + i) + j]
        flat[:, 2 * p * p::2 * p + 1] = 1.0  # j = i
        flat[:, 2 * p * p + p::2 * p + 1] = np.inf  # j = p + i
        f = cholesky(m, "stack has no Cholesky factor")
        return (f[:, :p, :p] if keep else None), f[:, p:, :p].swapaxes(1, 2).copy()
    l = cholesky(mats, "stack has no Cholesky factor")
    return (l if keep else None), _tri_inv(l, in_place=not keep)


def _tri_inv(l, in_place=False):
    """Inverse of each lower triangular matrix of a (k, p, p) stack, written over L if ``in_place``.

    Block forward substitution over block rows of width ``TRI_BLOCK``:
    block row i of X = L⁻¹ is Dᵢ = Lᵢᵢ⁻¹ on the diagonal and
    −Dᵢ (L[i, :i] X[:i, :i]) left of it, as stacked products. The full
    diagonal blocks of all k matrices are inverted together, as one
    stack, by :func:`_lower_inv` (a partial last block as a second), so
    X is exactly lower triangular. This is about a third of the
    floating-point work of an LU inverse, and as accurate (Du Croz &
    Higham, IMA J. Numer. Anal. 12, 1992).

    The block stacks are views of L and X (:func:`_diag_blocks`),
    inverted in place, so no block is copied. Block row i reads only L's
    block row i and the rows of X above it, so ``in_place`` X can be L
    itself, bitwise as a fresh X, where L is 0 above the diagonal.
    """
    p = l.shape[-1]
    b, m = TRI_BLOCK, p // TRI_BLOCK
    x = l if in_place else np.zeros_like(l)
    if m:
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
    """Write into x the inverse of each lower triangular matrix of a (..., b, b) stack l.

    Forward substitution: row i of X = L⁻¹ is −(L[i, :i] X[:i, :i])/L[i, i]
    left of the diagonal and 1/L[i, i] on it, b stacked row products,
    each times the reciprocal diagonal. x, which may be l itself (row i
    reads only L's row i and the rows of X above it), must be 0 above the
    diagonal, and stays so.
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


def _positive_eigh(m, vectors, what, not_positive):
    """:func:`eigh` of an unvalidated matrix or (k, p, p) stack whose eigenvalues are all positive
    and finite. Else raises, in this order: DomainError("``what`` overflows float64", with " for
    matrix i", the first, for a stack) for a matrix not finite or with an infinite eigenvalue, also
    where the eigensolver fails on it; its NonConvergence; DomainError(``not_positive``)."""
    try:
        w, u = eigh(m, vectors)
    except NonConvergence:
        if np.isfinite(m).all():
            raise
        w = np.zeros(m.shape[:-1])  # no spectrum: the entries name the overflow
    # the ends of each ascending spectrum; one p×p matrix's are read without a reduction
    lo, hi = (w[0], w[-1]) if w.ndim == 1 else (w[:, 0].min(), w[:, -1].max())
    if lo > 0 and hi < np.inf:  # a NaN fails
        return w, u
    over = np.isinf(w).any(axis=-1) | ~np.isfinite(m).all(axis=(-2, -1))
    if over.any():
        which = f" for matrix {int(over.argmax())}" if m.ndim == 3 else ""
        raise DomainError(f"{what} overflows float64{which}")
    raise DomainError(not_positive)


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


def _finite(value, message):
    """``value``, once every entry is finite; DomainError(``message``) otherwise."""
    if not np.isfinite(value).all():
        raise DomainError(message)
    return value


def _checked_rebuild(fw, out, spd_valued=True):
    """``out``, rebuilt from the values ``fw``, once both are finite (and ``fw`` positive)."""
    for value in (fw, out):
        _finite(value, "scalar function not finite on the spectrum")
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
    t = _real_number(t, f"pow_m requires t to be a finite real number, got {t!r}", positive=False)
    return _eig_apply(check_spd(a), lambda w: w**t)


def frob_inner(a, b):
    """Frobenius inner product ⟨A, B⟩ = Σᵢⱼ Aᵢⱼ Bᵢⱼ = tr(A Bᵀ) of two real arrays.

    A non-finite entry raises a DomainError that names its argument, and
    so does a sum that overflows float64.
    """
    return _finite(_frob(_real_finite(a, "a"), _real_finite(b, "b")),
                   "the inner product of a and b overflows float64")


def _frob(a, b):
    """Unvalidated ⟨A, B⟩ of two arrays of one shape; no warning where it is not finite."""
    check_dims(a, b)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.sum(a * b))


def _checked_pair(x1, x2, n1="x1", n2="x2"):
    """F₁ and a finite W = F₁⁻¹F₂ from the factors Fₖ Fₖᵀ = xₖ that :func:`check_spd` takes.

    W Wᵀ = F₁⁻¹ x2 F₁⁻ᵀ has the spectrum of x1^{-1/2} x2 x1^{-1/2}. Errors
    call x1 and x2 ``n1`` and ``n2``.
    """
    _, f1, f1_inv = _check_spd_factor(x1, n1)
    f2 = _check_spd_factor(x2, n2)[1]
    check_dims(f1, f2)
    with np.errstate(over="ignore"):
        w = f1_inv @ f2
    return f1, _finite(w, f"{n1}^(-1/2) {n2} {n1}^(-1/2) overflows float64")


def geodesic(x1, x2, t):
    """Point at parameter ``t`` on the affine-invariant geodesic from x1 to x2.

    Computes ``x1^{1/2} (x1^{-1/2} x2 x1^{-1/2})^t x1^{1/2}`` as H Hᵀ, H = F₁ P D(σᵗ)
    from the SVD W = P D(σ) Qᵀ (:func:`_checked_pair`): W Wᵀ, which can underflow
    where W does not, is never formed. ``t=0`` returns x1, ``t=1`` x2, ``t=1/2``
    the two-matrix geometric mean; ``t`` must be a finite real number.
    """
    t = _real_number(t, f"geodesic requires t to be a finite real number, got {t!r}",
                     positive=False)
    return _geodesic(*_checked_pair(x1, x2), t)


def _geodesic(f1, w, t):
    """The geodesic point at ``t`` from the F₁ and W of :func:`_checked_pair`."""
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
