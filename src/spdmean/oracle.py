"""Independent reference implementations used to validate the solvers.

These are closed forms and brute-force probes trusted at desk scale:
solver tests compare against them, never the other way around.
"""

import numpy as np

from .errors import DimensionMismatch, DomainError, NotCommuting
from .karcher import Ensemble
from .spd_core import (_checked_pair, _finite, _geodesic, _real, _real_finite, _real_number,
                       _unit, check_spd, exp_m, log_m, sym)

COMMUTE_CHECK_TOL = 1e-10


def scalar_karcher_oracle(values) -> float:
    """Geometric mean exp(mean(log v)); the exact 1x1 Karcher mean."""
    vals = _real(values, "values")
    if vals.size == 0 or not np.all((vals > 0) & (vals < np.inf)):  # NaN fails too
        raise DomainError("geometric mean requires positive finite values")
    return float(np.exp(np.mean(np.log(vals))))


def commuting_oracle(e: Ensemble) -> np.ndarray:
    """Closed-form Karcher mean exp((1/n) Σ log Aᵢ) for commuting inputs.

    Raises
    ------
    NotCommuting
        If some pair fails ‖AB − BA‖_F ≤ 1e-10 · ‖A‖_F ‖B‖_F, tested at any float64 scale
        on the pair scaled exactly by powers of four to max |entry| in [1/2, 2)
        (:func:`spdmean.spd_core._unit`, the rule validation scales by).
    """
    unit, _ = _unit(e.mats)
    for i, a in enumerate(unit):
        for j, b in enumerate(unit[i + 1:], i + 1):
            comm = np.linalg.norm(a @ b - b @ a)
            if comm > COMMUTE_CHECK_TOL * np.linalg.norm(a) * np.linalg.norm(b):
                raise NotCommuting(f"matrices {i} and {j} do not commute")
    avg_log = np.zeros((e.dim, e.dim))
    for i in range(e.n):
        avg_log = avg_log + log_m(e.mats[i])
    return exp_m(sym(avg_log / e.n))


def two_matrix_oracle(a, b) -> np.ndarray:
    """Karcher mean of two matrices: the geodesic midpoint; errors name ``a`` and ``b``."""
    return _geodesic(*_checked_pair(a, b, "a", "b"), 0.5)


def finite_diff_directional(f, x, h_dir, h: float = 1e-6) -> float:
    """Central difference (f(X + hH) − f(X − hH)) / 2h along symmetric H.

    Raises
    ------
    DomainError
        If ``h`` is not a positive finite real number, ``x`` fails
        :func:`spdmean.spd_core.check_spd`, ``h_dir`` is not real and finite, a nonzero
        ``h_dir`` leaves either perturbed matrix equal to ``x`` in float64 (so the quotient
        would read 0 or a rounding step, not the derivative), either perturbed matrix
        fails ``check_spd``, or f's values or their difference are not finite.
    DimensionMismatch
        If ``x`` is not a square matrix, or ``h_dir`` does not have its shape.
    """
    h = _real_number(h, f"finite difference step h must be positive and finite, got {h!r}")
    shape = check_spd(x, "x").shape
    h_dir = _real_finite(h_dir, "h_dir")
    if h_dir.shape != shape:
        raise DimensionMismatch(
            f"expected h_dir to have the shape of x, {shape}, got {h_dir.shape}")
    with np.errstate(all="ignore"):  # an overflow is refused: by check_spd, or by the test below
        step = h * h_dir
        moved = x + step, x - step
        if h_dir.any() and any((m == x).all() for m in moved):
            raise DomainError(f"finite difference step h={h!r} along h_dir does not move x "
                              "in float64")
        for m in moved:
            check_spd(m, "perturbed matrix")
        value = (f(moved[0]) - f(moved[1])) / (2.0 * h)
    return _finite(value, "finite difference of f at x along h_dir is not finite in float64")
