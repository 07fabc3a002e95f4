"""Independent reference implementations used to validate the solvers.

These are closed forms and brute-force probes trusted at desk scale:
solver tests compare against them, never the other way around.
"""

import numpy as np

from .errors import DomainError, NotCommuting
from .karcher import Ensemble
from .spd_core import _positive_finite, _real, check_spd, exp_m, geodesic, log_m, sym

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


def finite_diff_directional(f, x, h_dir, h: float = 1e-6) -> float:
    """Central difference (f(X + hH) − f(X − hH)) / 2h along symmetric H.

    Raises
    ------
    DomainError
        If ``h`` is not a positive finite real number, ``h_dir`` is not real, or
        either perturbed matrix fails :func:`spdmean.spd_core.check_spd`.
    """
    if not _positive_finite(h):
        raise DomainError(f"finite difference step h must be positive and finite, got {h!r}")
    step = float(h) * _real(h_dir, "h_dir")
    for sign in (1.0, -1.0):
        check_spd(x + sign * step, "perturbed matrix")
    return (f(x + step) - f(x - step)) / (2.0 * h)
