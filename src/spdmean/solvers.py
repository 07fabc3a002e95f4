"""Karcher-mean solvers with per-iteration traces.

Three solvers share one loop and its stopping rule (Frobenius norm of
the unnormalized gradient sum below ``grad_tol``, default
``1e-10 * n``); each supplies only a step function:

* :func:`mm_solve` — parameter-free majorization-minimization; each step
  minimizes the surrogate in closed form and the objective never
  increases.
* :func:`gd_linesearch_solve` — gradient descent along the exponential
  map with backtracking line search; every inner probe counts as one
  trace record.
* :func:`gd_fixed_step_solve` — the same update with a constant step;
  no descent guarantee, with a divergence guard.
"""

import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, Optional

import numpy as np

from .errors import DomainError
from .karcher import (Ensemble, _check_point, _karcher_terms, grad_sum, objective,
                      surrogate_minimizer)
from .spd_core import check_spd, exp_m, sqrt_m, sym

DEFAULT_MAX_ITERS = 500
DEFAULT_GRAD_TOL_PER_MAT = 1e-10
DIVERGENCE_FACTOR = 1e6

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_STALLED = "line_search_stalled"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration caps, tolerances, and step-size policy.

    ``grad_tol`` applies to the unnormalized gradient sum; when ``None``
    it defaults to ``1e-10 * n`` at solve time (the sum scales with n).
    ``nu`` and ``c`` drive the line-search step sizes c^j · nu, j ≥ 1.
    """

    max_iters: int = DEFAULT_MAX_ITERS
    grad_tol: Optional[float] = None
    nu: float = 1.0
    c: float = 0.5
    ls_max_j: int = 60

    def __post_init__(self):
        if self.max_iters < 1:
            raise DomainError("max_iters must be >= 1")
        if self.grad_tol is not None and self.grad_tol <= 0:
            raise DomainError("grad_tol must be positive")
        if self.nu <= 0:
            raise DomainError("nu must be positive")
        if not 0 < self.c < 1:
            raise DomainError("c must lie in (0, 1)")
        if self.ls_max_j < 1:
            raise DomainError("ls_max_j must be >= 1")

    def effective_grad_tol(self, n: int) -> float:
        if self.grad_tol is not None:
            return self.grad_tol
        return DEFAULT_GRAD_TOL_PER_MAT * n


@dataclass(frozen=True)
class TraceRecord:
    """One iteration of a solver run.

    ``grad_norm`` is ‖Σᵢ log(X^{-1/2} Aᵢ X^{-1/2})‖_F (unnormalized sum)
    and ``log_error`` its natural log.
    """

    iter: int
    objective: float
    grad_norm: float
    log_error: float
    elapsed: float


@dataclass(frozen=True)
class SolverResult:
    """Final iterate plus per-iteration trace.

    ``converged`` implies the final grad_norm is below the effective
    tolerance; ``status`` names the stopping reason otherwise.
    """

    mean: np.ndarray
    trace: List[TraceRecord] = field(repr=False)
    converged: bool = False
    iters_used: int = 0
    status: str = STATUS_MAX_ITERS


def _solve(steps, e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """The loop all solvers share: trace, stopping rule and result.

    ``steps(e, cfg, x)`` yields ``(x, objective, grad_sum)`` once per
    trace record, starting at the start point, which is validated here
    once (SPD, ensemble dimension); the MM iterates are not validated
    again. After each record the run stops as converged (gradient norm
    below tolerance), diverged (objective above ``DIVERGENCE_FACTOR``
    times its first value; only fixed-step GD can raise its objective)
    or at the cap of ``max_iters + 1`` records, tested in that order. A
    step function that returns has stalled: its last probe failed, and
    the loop records that probe at the current point without the cap
    test. A NaN objective or gradient norm raises :class:`DomainError`,
    so no run ends with a NaN mean.
    """
    x = _check_point(e, check_spd(x0))
    tol = cfg.effective_grad_tol(e.n)
    t0 = perf_counter()
    trace: List[TraceRecord] = []

    def record(f_val, gnorm):
        log_error = math.log(gnorm) if gnorm > 0 else float("-inf")
        trace.append(TraceRecord(iter=len(trace), objective=f_val,
                                 grad_norm=gnorm, log_error=log_error,
                                 elapsed=perf_counter() - t0))

    status = STATUS_MAX_ITERS
    for x, f_val, g in steps(e, cfg, x):
        gnorm = float(np.linalg.norm(g))
        if math.isnan(f_val) or math.isnan(gnorm):
            raise DomainError(f"iterate {len(trace)} has objective {f_val} "
                              f"and gradient norm {gnorm}")
        record(f_val, gnorm)
        if gnorm < tol:
            status = STATUS_CONVERGED
            break
        if f_val > DIVERGENCE_FACTOR * trace[0].objective:
            status = STATUS_DIVERGED
            break
        if len(trace) > cfg.max_iters:
            break
    else:
        record(f_val, gnorm)
        status = STATUS_LINE_SEARCH_STALLED
    return SolverResult(mean=x, trace=trace,
                        converged=status == STATUS_CONVERGED,
                        iters_used=len(trace) - 1, status=status)


def arithmetic_mean_init(e: Ensemble) -> np.ndarray:
    """Arithmetic mean (1/n) Σ Aᵢ, the common starting iterate."""
    return sym(np.mean(e.mats, axis=0))


def _mm_steps(e: Ensemble, cfg: SolverConfig, x):
    while True:
        f_val, g, c1, c2 = _karcher_terms(e, x)
        yield x, f_val, g
        x = surrogate_minimizer(c1, c2)


def mm_solve(e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """Majorization-minimization fixed-point iteration.

    Each iterate is the closed-form minimizer of the surrogate built at
    the previous one; the objective trace is nonincreasing.
    """
    return _solve(_mm_steps, e, cfg, x0)


def _exp_step(x, sqrt_x, step, d):
    return sym(sqrt_x @ exp_m(step * d) @ sqrt_x)


def _gd_linesearch_steps(e: Ensemble, cfg: SolverConfig, x):
    f_cur, g = objective(e, x), grad_sum(e, x)
    while True:
        yield x, f_cur, g
        sqrt_x = sqrt_m(x)
        d = g / e.n
        for j in range(cfg.ls_max_j + 1):
            x_trial = _exp_step(x, sqrt_x, cfg.c**j * cfg.nu, d)
            f_trial = objective(e, x_trial)
            if f_trial <= f_cur:
                x, f_cur, g = x_trial, f_trial, grad_sum(e, x_trial)
                break
            if j == cfg.ls_max_j:
                return  # stalled; the loop records this last probe
            yield x, f_cur, g


def gd_linesearch_solve(e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """Gradient descent with backtracking line search.

    Trial steps c^j · nu (smallest j ≥ 0 whose objective does not
    exceed the current one) are taken along the exponential map.
    Accepting ties matters near convergence: once objective differences
    fall below float64 resolution a strict-decrease rule deadlocks while
    the iterate can still contract the gradient norm by orders of
    magnitude. Every inner probe appends one trace record, so
    ``max_iters`` caps the total probe count; if every probe up to
    ``ls_max_j`` increases the objective the run stops with status
    ``line_search_stalled``, even when that last probe reaches the cap.
    """
    return _solve(_gd_linesearch_steps, e, cfg, x0)


def _gd_fixed_steps(e: Ensemble, cfg: SolverConfig, x):
    while True:
        f_val, g = objective(e, x), grad_sum(e, x)
        yield x, f_val, g
        x = _exp_step(x, sqrt_m(x), cfg.nu, g / e.n)


def gd_fixed_step_solve(e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """Gradient descent with the constant step ``nu``.

    The trace may be nonmonotone; the run stops with status ``diverged``
    once the objective exceeds 1e6 times its initial value.
    """
    return _solve(_gd_fixed_steps, e, cfg, x0)


# The one list of solver kinds: SolverSpec and the CLI read it.
SOLVERS = {
    "mm": mm_solve,
    "gd-ls": gd_linesearch_solve,
    "gd-fixed": gd_fixed_step_solve,
}
