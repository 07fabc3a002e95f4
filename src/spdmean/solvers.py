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

Every solver carries its iterate as a factor G of X = G Gᵀ, starting
from the validated start point's factor, and works in G's frame on
one stacked eigendecomposition per point, the pass of
:func:`spdmean.karcher._frame_eigh`. The steps yield the factor; the
loop forms the mean X = G Gᵀ once, when the run ends. Each step hands
the pass, as a temporary, to its reduction, which calls no eigensolver:
MM to :func:`spdmean.karcher._frame_terms` (two Gram products: c̃1, c̃2
and the gradient as their difference); GD, which needs the gradient
only, to :func:`spdmean.karcher._frame_grad` (one product).
There X^{1/2} = G Qᵀ with Q orthogonal, so the Riemannian step
X^{1/2} exp(t D) X^{1/2} along D = Q ĝ Qᵀ / n, with ĝ the frame
gradient, is G exp(t ĝ/n) Gᵀ = G⁺ G⁺ᵀ for G⁺ = (GV) exp(tΛ/2), where
ĝ/n = V Λ Vᵀ: one p×p eigendecomposition serves every step length t.
"""

import itertools
import math
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import List, NamedTuple, Optional

import numpy as np

from . import spd_core
from .errors import DomainError
from .karcher import (Ensemble, _frame_eigh, _frame_grad, _frame_objective, _frame_terms,
                      _minimizer_factor, _point)
from .spd_core import _real_number, _whole_number, eigh

DEFAULT_MAX_ITERS = 500
DEFAULT_GRAD_TOL_PER_MAT = 1e-10
DIVERGENCE_FACTOR = 1e6
# gd-ls probes the steps LS_FACTOR^j · nu, 0 ≤ j ≤ LS_MAX_J; the smallest, about
# 8.7e-19 · nu, leaves the cone for a nu well above 1e18, and the run stalls at its start
LS_FACTOR = 0.5
LS_MAX_J = 60

STATUS_CONVERGED = "converged"
STATUS_MAX_ITERS = "max_iters"
STATUS_LINE_SEARCH_STALLED = "line_search_stalled"
STATUS_DIVERGED = "diverged"


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap, tolerance and gradient-descent step: what a benchmark column varies.

    ``grad_tol`` applies to the unnormalized gradient sum; when ``None``
    it defaults to ``1e-10 * n`` at solve time (the sum scales with n).
    F = Σ d²(·, Aᵢ) is 2n-strongly geodesically convex, so a mean X whose
    trace ends at ``grad_norm`` ‖ĝ‖ lies within d(X, X*) ≤ ‖ĝ‖/n of the
    Karcher mean X*: the default means d ≤ 1e-10, up to round-off in the
    computed ĝ, which grows with the Aᵢ's condition: with one Aᵢ at 2e12
    (n = 5, p = 3), MM stops at ‖ĝ‖/n ≈ 1e-10 with d up to 3e-5.
    ``nu`` is the fixed step, or the line search's first probe. ``grad_tol``
    and ``nu`` must be positive finite numbers, ``max_iters`` an integer >= 1.
    """

    max_iters: int = DEFAULT_MAX_ITERS
    grad_tol: Optional[float] = None
    nu: float = 1.0

    def __post_init__(self):
        _whole_number(self.max_iters, f"max_iters must be an integer >= 1, got {self.max_iters!r}")
        if self.grad_tol is not None:
            _real_number(self.grad_tol, "grad_tol must be positive and finite")
        _real_number(self.nu, "nu must be positive and finite")

    def effective_grad_tol(self, n: int) -> float:
        if self.grad_tol is not None:
            return self.grad_tol
        return DEFAULT_GRAD_TOL_PER_MAT * n


class TraceRecord(NamedTuple):
    """One iteration of a solver run, immutable, in the trace CSV's column order.

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
    """Final iterate, trace and stopping reason; ``converged`` and ``iters_used`` follow."""

    mean: np.ndarray
    trace: List[TraceRecord] = field(repr=False)
    status: str

    @property
    def converged(self) -> bool:
        return self.status == STATUS_CONVERGED

    @property
    def iters_used(self) -> int:
        return len(self.trace) - 1


def _solve(steps, e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """The loop all solvers share: trace, stopping rule and result.

    The start point is validated here once, as every ``point`` is
    (:func:`spdmean.karcher._point`), and G₀ in X₀ = G₀ G₀ᵀ is the factor
    the validation took, as an ensemble member's; the iterates are not
    validated again.
    ``steps(e, cfg, g0)`` yields ``(g, objective, grad_sum)`` once per
    trace record, starting at G₀, with g the factor of the current
    point. Only the Frobenius norm of ``grad_sum`` is used, so a step
    may yield it in another orthonormal basis. The mean G Gᵀ is formed
    once, from the last factor; a run that never left G₀ returns the
    validated start point itself. After each record the run
    stops as converged (gradient norm below tolerance), diverged
    (objective above ``DIVERGENCE_FACTOR`` times its first value; only
    fixed-step GD can raise its objective) or at the cap of
    ``max_iters + 1`` records, tested in that order. A
    step function that returns has stalled: its last probe failed, and
    the loop records that probe at the current point without the cap
    test. A NaN objective or gradient norm raises :class:`DomainError`,
    so no run ends with a NaN mean. Every step runs under one
    floating-point policy: overflow and invalid operations (0 · inf,
    inf − inf) do not warn, and the kernel's guards,
    :func:`spdmean.spd_core._positive_eigh` and the NaN test above, are the
    only refusals of the values they leave.
    """
    x0, g0, _ = _point(e, x0)
    tol = cfg.effective_grad_tol(e.n)
    t0 = perf_counter()
    trace: List[TraceRecord] = []

    def record(f_val, gnorm):
        log_error = math.log(gnorm) if gnorm > 0 else float("-inf")
        trace.append(TraceRecord(len(trace), f_val, gnorm, log_error,
                                 perf_counter() - t0))

    status = STATUS_MAX_ITERS
    with np.errstate(over="ignore", invalid="ignore"):
        for g, f_val, grad in steps(e, cfg, g0):
            v = grad.ravel("K")
            gnorm = math.sqrt(v.dot(v))  # np.linalg.norm's own computation
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
    return SolverResult(mean=x0 if g is g0 else g @ g.T, trace=trace, status=status)


def arithmetic_mean_init(e: Ensemble) -> np.ndarray:
    """Arithmetic mean (1/n) Σ Aᵢ, the common starting iterate; the sum cannot overflow.

    No entry of an SPD matrix exceeds its largest diagonal entry in
    magnitude (up to rounding), so where n times the largest diagonal
    entry is below half the float64 maximum the Aᵢ are summed as they are.
    Otherwise they are scaled by s = 2^-⌈log₂ n⌉ first; a power-of-two
    scaling is exact, so the result is the same wherever no entry is subnormal.
    """
    # not np.diagonal(...).max(): on a 10 × 10 × 10 stack that costs 0.7 µs more, about
    # what the scaled copy this path saves cost
    if np.maximum.reduce(e.mats.diagonal(0, 1, 2), axis=None) < sys.float_info.max / (2 * e.n):
        return np.add.reduce(e.mats) / e.n  # what np.mean computes
    s = 2.0 ** -math.ceil(math.log2(e.n))
    return np.add.reduce(e.mats * s) / e.n / s


def _mm_steps(e: Ensemble, cfg: SolverConfig, g):
    while True:
        f_val, grad, c1, c2 = _frame_terms(_frame_eigh(e, g))
        yield g, f_val, grad
        g = g @ _minimizer_factor(
            c1, spd_core.cholesky(c2, "surrogate_minimizer requires a positive definite c2"))


def mm_solve(e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """Majorization-minimization fixed-point iteration.

    Each iterate is the closed-form minimizer of the surrogate built at
    the previous one; the objective trace is nonincreasing. An iteration
    is one stacked eigendecomposition of n matrices, two Gram products
    over its eigenvectors, one Cholesky factorization and one p×p
    eigendecomposition, all in the frame of the current iterate's factor.
    """
    return _solve(_mm_steps, e, cfg, x0)


def _gd_linesearch_steps(e: Ensemble, cfg: SolverConfig, g):
    f_cur, grad = _frame_grad(_frame_eigh(e, g))
    while True:
        yield g, f_cur, grad
        lam, v = eigh(grad / e.n)
        gv = g @ v
        for j in range(LS_MAX_J + 1):
            g_trial = gv * np.exp(0.5 * LS_FACTOR**j * cfg.nu * lam)
            try:
                f_trial = _frame_objective(e, g_trial)
            except DomainError:  # the probe left the cone in float64
                f_trial = math.inf
            if f_trial <= f_cur:
                g = g_trial
                # the kernel's objective, not the probe's: measured in the
                # fig1 regime, keeping f_trial stalls twice as many runs
                f_cur, grad = _frame_grad(_frame_eigh(e, g))
                break
            if j == LS_MAX_J:
                return  # stalled; the loop records this last probe
            yield g, f_cur, grad


def gd_linesearch_solve(e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """Gradient descent with backtracking line search.

    Trial steps ``LS_FACTOR**j * nu`` (smallest j ≥ 0 whose objective
    does not exceed the current one) are taken along the exponential map.
    Accepting ties matters near convergence: once objective differences
    fall below float64 resolution a strict-decrease rule deadlocks while
    the iterate can still contract the gradient norm by orders of
    magnitude. Every inner probe appends one trace record, so
    ``max_iters`` caps the total probe count; if every probe up to
    j = ``LS_MAX_J`` increases the objective the run stops with status
    ``line_search_stalled``, even when that last probe reaches the cap.
    A probe that leaves the positive definite cone in float64 (its step
    overflows, or underflows to a singular point) counts as rejected.
    A probe is one values-only stacked eigendecomposition of n matrices;
    an accepted point gets the stacked pass with eigenvectors and the
    gradient-only reduction.
    """
    return _solve(_gd_linesearch_steps, e, cfg, x0)


def _gd_fixed_steps(e: Ensemble, cfg: SolverConfig, g):
    f_val, grad = _frame_grad(_frame_eigh(e, g))
    for k in itertools.count(1):
        yield g, f_val, grad
        lam, v = eigh(grad / e.n)
        g = (g @ v) * np.exp(0.5 * cfg.nu * lam)
        try:
            f_val, grad = _frame_grad(_frame_eigh(e, g))
        except DomainError as exc:
            raise DomainError(f"gd-fixed step nu={cfg.nu:g} left the positive definite "
                              f"cone at iterate {k}: {exc}") from exc


def gd_fixed_step_solve(e: Ensemble, cfg: SolverConfig, x0) -> SolverResult:
    """Gradient descent with the constant step ``nu``.

    The trace may be nonmonotone; the run stops with status ``diverged``
    once the objective exceeds 1e6 times its initial value. A step that
    leaves the positive definite cone in float64 before that raises
    :class:`DomainError` naming the step and the iterate. An iteration
    is one stacked eigendecomposition of n matrices, the gradient-only
    reduction and one p×p eigendecomposition.
    """
    return _solve(_gd_fixed_steps, e, cfg, x0)


# The one list of solver kinds: SolverSpec and the CLI read it.
SOLVERS = {
    "mm": mm_solve,
    "gd-ls": gd_linesearch_solve,
    "gd-fixed": gd_fixed_step_solve,
}
