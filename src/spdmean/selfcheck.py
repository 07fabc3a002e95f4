"""The one table of the paper's checks, and the random samplers they use.

Each ``check_*`` function draws instances from the rng it is given (or
takes the traces or grid size it measures) and returns its worst
value(s) and whether they meet the threshold written beside them. The
acceptance criteria call these functions on their own seeds and counts;
``spdmean check`` runs :data:`TABLE`, the same functions at small counts.
The library is reached through module attributes (``karcher.objective``,
``solvers.mm_solve``), so a fault patched into a module shows up here.
A ``p_range`` or ``n_range`` is half-open, as passed to ``rng.integers``.
"""

import math
from dataclasses import dataclass
from typing import List

import numpy as np

from . import karcher, oracle, solvers
from .bench import _check_array_size, _matrix_dim, random_orthogonal
from .errors import SpdMeanError
from .karcher import Ensemble
from .spd_core import _whole_number, frob_inner, inv_m, riem_dist, sym


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_spd(rng, p, lo=0.5, hi=5.0):
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi].

    Raises
    ------
    DomainError
        As :func:`spdmean.bench.random_orthogonal` does for ``p``, before anything is drawn.
    """
    u = random_orthogonal(p, rng)
    return sym((u * rng.uniform(lo, hi, size=p)) @ u.T)


def _ensemble_size(n, p):
    """``(n, p)`` as ints once each is an integer >= 1 and numpy could hold the p×p matrix and the
    (n, p, p) float64 ensemble, the size rule of ``ExperimentSpec``; DomainError naming the field
    otherwise, n's whole-number test first."""
    n = _whole_number(n, f"n must be an integer >= 1, got {n!r}")
    p = _matrix_dim(p)
    _check_array_size("n", n, (n, p, p))
    return n, p


def random_ensemble(rng, n, p, lo=0.5, hi=5.0):
    """Ensemble of n independent :func:`random_spd` matrices.

    Raises
    ------
    DomainError
        If ``n`` or ``p`` is not an integer >= 1 (a bool is not one), or numpy
        could not hold the (n, p, p) float64 ensemble; before anything is drawn.
    """
    n, p = _ensemble_size(n, p)
    return Ensemble.from_matrices([random_spd(rng, p, lo, hi) for _ in range(n)])


def commuting_ensemble(rng, n, p, lo=0.5, hi=5.0):
    """Ensemble sharing one eigenbasis, so all members commute.

    Raises
    ------
    DomainError
        If ``n`` or ``p`` is not an integer >= 1 (a bool is not one), or numpy
        could not hold the (n, p, p) float64 ensemble; before anything is drawn.
    """
    n, p = _ensemble_size(n, p)
    u = random_orthogonal(p, rng)
    return Ensemble.from_matrices(
        [sym((u * rng.uniform(lo, hi, size=p)) @ u.T) for _ in range(n)])


def random_sym(rng, p, scale=1.0):
    """Symmetric matrix with standard normal entries, times ``scale``.

    Raises
    ------
    DomainError
        If ``p`` is not an integer >= 1 (a bool is not one), or numpy could
        not hold a p×p float64 matrix; before anything is drawn.
    """
    p = _matrix_dim(p)
    return sym(rng.standard_normal((p, p))) * scale


def solve_mm(e, **cfg):
    """MM on ``e`` from the arithmetic-mean start, with ``SolverConfig(**cfg)``."""
    return solvers.mm_solve(e, solvers.SolverConfig(**cfg), solvers.arithmetic_mean_init(e))


def check_scalar_oracle(rng, trials):
    """Criterion 1: worst riem_dist from MM to the geometric mean of 1×1 ensembles."""
    worst = 0.0
    for _ in range(trials):
        vals = rng.uniform(0.2, 8.0, size=int(rng.integers(1, 7)))
        e = Ensemble.from_matrices([np.array([[v]]) for v in vals])
        worst = max(worst, riem_dist(solve_mm(e).mean,
                                     np.array([[oracle.scalar_karcher_oracle(vals)]])))
    return worst, worst <= 1e-8


def check_commuting_oracle(rng, trials):
    """Criterion 1: worst riem_dist from MM to the mean of commuting ensembles."""
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(2, 7))
        e = commuting_ensemble(rng, int(rng.integers(2, 6)), p)
        worst = max(worst, riem_dist(solve_mm(e).mean, oracle.commuting_oracle(e)))
    return worst, worst <= 1e-8


def check_two_matrix_oracle(rng, trials):
    """Criterion 1: worst riem_dist from MM to the geodesic midpoint of two matrices."""
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(2, 7))
        a, b = random_spd(rng, p), random_spd(rng, p)
        e = Ensemble.from_matrices([a, b])
        worst = max(worst, riem_dist(solve_mm(e).mean, oracle.two_matrix_oracle(a, b)))
    return worst, worst <= 1e-8


def check_majorization(rng, trials, p_range=(1, 6), n_range=(1, 5)):
    """Criterion 2: the surrogate at X' majorizes F and touches it at X'.

    Returns the least slack (G(X; X') − F(X)) / (1 + |F(X)|), which must
    be ≥ −1e-9, and the largest touching gap |G(X'; X') − F(X')| /
    (1 + |F(X')|), which must be ≤ 1e-10.
    """
    worst_slack, worst_gap = math.inf, 0.0
    for _ in range(trials):
        p = int(rng.integers(*p_range))
        e = random_ensemble(rng, int(rng.integers(*n_range)), p)
        x, xp = random_spd(rng, p), random_spd(rng, p)
        s = karcher.surrogate_coeffs(e, xp)
        f_x, f_xp = karcher.objective(e, x), karcher.objective(e, xp)
        worst_slack = min(worst_slack,
                          (karcher.surrogate_value(s, x) - f_x) / (1.0 + abs(f_x)))
        worst_gap = max(worst_gap,
                        abs(karcher.surrogate_value(s, xp) - f_xp) / (1.0 + abs(f_xp)))
    return worst_slack, worst_gap, worst_slack >= -1e-9 and worst_gap <= 1e-10


def check_minimizer_stationarity(rng, trials):
    """Criterion 3: worst ‖c1 − X⁻¹ c2 X⁻¹‖ / ‖c1‖ at the closed-form minimizer X."""
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(1, 7))
        c1, c2 = random_spd(rng, p), random_spd(rng, p)
        xi = inv_m(karcher.surrogate_minimizer(c1, c2))
        worst = max(worst, np.linalg.norm(c1 - xi @ c2 @ xi) / np.linalg.norm(c1))
    return worst, worst <= 1e-9


def check_descent(traces):
    """Criterion 4: worst step (F_k − F_{k−1}) / (1 + |F_{k−1}|) over solver traces."""
    worst = -math.inf
    for trace in traces:
        objs = [t.objective for t in trace]
        for prev, cur in zip(objs, objs[1:]):
            worst = max(worst, (cur - prev) / (1.0 + abs(prev)))
    return worst, worst <= 1e-12


def fd_gap(f, grad, x, h):
    """Relative gap between f's central difference at x along h and ⟨grad, h⟩."""
    fd = oracle.finite_diff_directional(f, x, h, 1e-6)
    an = frob_inner(grad, h)
    return abs(fd - an) / max(1.0, abs(an))


def check_gradient_fd(rng, trials, p_range=(2, 5)):
    """Criterion 8: worst :func:`fd_gap` of the objective's Euclidean gradient."""
    worst = 0.0
    for _ in range(trials):
        p = int(rng.integers(*p_range))
        e = random_ensemble(rng, int(rng.integers(1, 4)), p)
        x = random_spd(rng, p, lo=1.0, hi=3.0)
        h = random_sym(rng, p)
        h /= np.linalg.norm(h)
        worst = max(worst, fd_gap(lambda m: karcher.objective(e, m),
                                  karcher.euclidean_gradient(e, x), x, h))
    return worst, worst <= 1e-5


def check_g1_g2(points):
    """Criterion 10: worst |g1(x)·g2(x) − 1| on ``points`` log-spaced x in [1e-12, 1e12]."""
    xs = 10.0 ** np.linspace(-12.0, 12.0, points)
    worst = max(abs(karcher.g1_scalar(x) * karcher.g2_scalar(x) - 1.0) for x in xs)
    return worst, worst <= 1e-14


def check_cross_solver(rng, trials):
    """Worst riem_dist between the MM and line-search GD means (no criterion)."""
    worst = 0.0
    for _ in range(trials):
        e = random_ensemble(rng, 4, 5)
        gd = solvers.gd_linesearch_solve(e, solvers.SolverConfig(),
                                         solvers.arithmetic_mean_init(e))
        worst = max(worst, riem_dist(solve_mm(e).mean, gd.mean))
    return worst, worst <= 1e-6


def check_fixed_point(rng):
    """Gradient-sum norm at the MM mean of one random ensemble (no criterion)."""
    e = random_ensemble(rng, 5, 6)
    res = solve_mm(e)
    gnorm = float(np.linalg.norm(karcher.grad_sum(e, res.mean)))
    return gnorm, res.converged and gnorm < 10 * solvers.SolverConfig().effective_grad_tol(e.n)


# (line, the acceptance criterion it backs or None, the check at the CLI's
# counts, format of its worst values)
TABLE = [
    ("scalar oracle agreement", 1,
     lambda rng: check_scalar_oracle(rng, 20), "max dist {:.3g}"),
    ("commuting oracle agreement", 1,
     lambda rng: check_commuting_oracle(rng, 5), "max dist {:.3g}"),
    ("two-matrix oracle agreement", 1,
     lambda rng: check_two_matrix_oracle(rng, 5), "max dist {:.3g}"),
    ("g1*g2 == 1 across [1e-12, 1e12]", 10,
     lambda rng: check_g1_g2(97), "max |g1*g2 - 1| = {:.3g}"),
    ("surrogate majorizes objective", 2,
     lambda rng: check_majorization(rng, 25), "min slack {:.3g}, max touching gap {:.3g}"),
    ("closed-form minimizer stationarity", 3,
     lambda rng: check_minimizer_stationarity(rng, 25), "max residual {:.3g}"),
    ("mm objective descent", 4,
     lambda rng: check_descent([solve_mm(random_ensemble(rng, 5, 5)).trace for _ in range(5)]),
     "max relative increase {:.3g}"),
    ("mm vs gd line-search agreement", None,
     lambda rng: check_cross_solver(rng, 3), "max dist {:.3g}"),
    ("objective gradient vs finite differences", 8,
     lambda rng: check_gradient_fd(rng, 10), "max rel err {:.3g}"),
    ("gradient vanishes at mm fixed point", None, check_fixed_point, "grad norm {:.3g}"),
]


def run_checks(seed: int = 20240) -> List[CheckResult]:
    """Run :data:`TABLE`, entry i on ``default_rng([seed, i])``; the order is stable.

    A check that raises a package error fails its own line, naming the error.
    """
    results = []
    for i, (name, criterion, run, detail) in enumerate(TABLE):
        if criterion is not None:
            name = f"{name} (criterion {criterion})"
        try:
            *worst, passed = run(np.random.default_rng([seed, i]))
        except SpdMeanError as exc:
            results.append(CheckResult(name, False, f"{type(exc).__name__}: {exc}"))
            continue
        results.append(CheckResult(name, bool(passed), detail.format(*worst)))
    return results
