"""End-to-end consistency suite behind the ``check`` CLI command.

Each check compares solver output against an independent oracle or
verifies a structural invariant on freshly sampled instances. The suite
is intentionally small and fast; the full test suite covers the same
ground more exhaustively.
"""

from dataclasses import dataclass
from typing import Callable, List

import numpy as np

from . import karcher
from .bench import random_orthogonal
from .karcher import (
    Ensemble,
    grad_sum,
    surrogate_coeffs,
    surrogate_minimizer,
    surrogate_value,
)
from .oracle import commuting_oracle, scalar_karcher_oracle, two_matrix_oracle
from .solvers import SolverConfig, arithmetic_mean_init, gd_linesearch_solve, mm_solve
from .spd_core import frob_inner, inv_m, riem_dist, sym


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def random_spd(rng, p, lo=0.5, hi=5.0):
    """Random SPD matrix with eigenvalues drawn uniformly from [lo, hi]."""
    u = random_orthogonal(p, rng)
    return sym((u * rng.uniform(lo, hi, size=p)) @ u.T)


def random_ensemble(rng, n, p, lo=0.5, hi=5.0):
    """Ensemble of n independent :func:`random_spd` matrices."""
    return Ensemble.from_matrices([random_spd(rng, p, lo, hi) for _ in range(n)])


def _check_scalar_oracle(rng) -> CheckResult:
    worst = 0.0
    for _ in range(20):
        vals = rng.uniform(0.1, 10.0, size=rng.integers(1, 7))
        e = Ensemble.from_matrices([np.array([[v]]) for v in vals])
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        ref = np.array([[scalar_karcher_oracle(vals)]])
        worst = max(worst, riem_dist(res.mean, ref))
    return CheckResult("scalar oracle agreement", worst <= 1e-8,
                       f"max dist {worst:.3g}")


def _check_commuting_oracle(rng) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        p = int(rng.integers(2, 7))
        u = random_orthogonal(p, rng)
        mats = [sym((u * rng.uniform(0.5, 5.0, size=p)) @ u.T)
                for _ in range(int(rng.integers(2, 5)))]
        e = Ensemble.from_matrices(mats)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        worst = max(worst, riem_dist(res.mean, commuting_oracle(e)))
    return CheckResult("commuting oracle agreement", worst <= 1e-8,
                       f"max dist {worst:.3g}")


def _check_two_matrix_oracle(rng) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        p = int(rng.integers(2, 7))
        a, b = random_spd(rng, p), random_spd(rng, p)
        e = Ensemble.from_matrices([a, b])
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        worst = max(worst, riem_dist(res.mean, two_matrix_oracle(a, b)))
    return CheckResult("two-matrix oracle agreement", worst <= 1e-8,
                       f"max dist {worst:.3g}")


def _check_g1_g2_product(rng) -> CheckResult:
    xs = np.concatenate([10.0 ** np.linspace(-12, 12, 97), [1.0]])
    # looked up through the module so fault injection in tests is visible
    worst = max(abs(karcher.g1_scalar(x) * karcher.g2_scalar(x) - 1.0)
                for x in xs)
    return CheckResult("g1*g2 == 1 across [1e-12, 1e12]", worst <= 1e-14,
                       f"max |g1*g2 - 1| = {worst:.3g}")


def _check_majorization(rng) -> CheckResult:
    worst = -np.inf
    for _ in range(25):
        p = int(rng.integers(1, 6))
        e = random_ensemble(rng, int(rng.integers(1, 5)), p)
        x = random_spd(rng, p)
        xp = random_spd(rng, p)
        f_x = karcher.objective(e, x)
        slack = surrogate_value(surrogate_coeffs(e, xp), x) - f_x
        worst = max(worst, -slack / (1.0 + abs(f_x)))
    return CheckResult("surrogate majorizes objective", worst <= 1e-9,
                       f"worst violation {worst:.3g}")


def _check_minimizer_stationarity(rng) -> CheckResult:
    worst = 0.0
    for _ in range(25):
        p = int(rng.integers(1, 7))
        c1, c2 = random_spd(rng, p), random_spd(rng, p)
        x = surrogate_minimizer(c1, c2)
        xi = inv_m(x)
        resid = np.linalg.norm(c1 - xi @ c2 @ xi) / np.linalg.norm(c1)
        worst = max(worst, resid)
    return CheckResult("closed-form minimizer stationarity", worst <= 1e-9,
                       f"max residual {worst:.3g}")


def _check_mm_descent(rng) -> CheckResult:
    worst = -np.inf
    for _ in range(5):
        e = random_ensemble(rng, 5, 5)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        f_vals = [t.objective for t in res.trace]
        for prev, cur in zip(f_vals, f_vals[1:]):
            worst = max(worst, cur - prev - 1e-12 * (1.0 + prev))
    return CheckResult("mm objective descent", worst <= 0.0,
                       f"worst increase {worst:.3g}")


def _check_cross_solver(rng) -> CheckResult:
    worst = 0.0
    for _ in range(3):
        e = random_ensemble(rng, 4, 5)
        x0 = arithmetic_mean_init(e)
        a = mm_solve(e, SolverConfig(), x0)
        b = gd_linesearch_solve(e, SolverConfig(nu=1.0, c=0.5), x0)
        worst = max(worst, riem_dist(a.mean, b.mean))
    return CheckResult("mm vs gd line-search agreement", worst <= 1e-6,
                       f"max dist {worst:.3g}")


def _check_gradient_fd(rng) -> CheckResult:
    from .oracle import finite_diff_directional

    worst = 0.0
    for _ in range(10):
        p = int(rng.integers(1, 5))
        e = random_ensemble(rng, int(rng.integers(1, 4)), p)
        x = random_spd(rng, p, lo=1.0, hi=3.0)
        h_dir = sym(rng.standard_normal((p, p)))
        h_dir /= np.linalg.norm(h_dir)
        fd = finite_diff_directional(lambda m: karcher.objective(e, m), x, h_dir)
        an = frob_inner(karcher.euclidean_gradient(e, x), h_dir)
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    return CheckResult("objective gradient vs finite differences",
                       worst <= 1e-5, f"max rel err {worst:.3g}")


def _check_stationarity_at_convergence(rng) -> CheckResult:
    e = random_ensemble(rng, 5, 6)
    res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
    gnorm = float(np.linalg.norm(grad_sum(e, res.mean)))
    ok = res.converged and gnorm < 10 * SolverConfig().effective_grad_tol(e.n)
    return CheckResult("gradient vanishes at mm fixed point", ok,
                       f"grad norm {gnorm:.3g}")


_CHECKS: List[Callable] = [
    _check_scalar_oracle,
    _check_commuting_oracle,
    _check_two_matrix_oracle,
    _check_g1_g2_product,
    _check_majorization,
    _check_minimizer_stationarity,
    _check_mm_descent,
    _check_cross_solver,
    _check_gradient_fd,
    _check_stationarity_at_convergence,
]


def run_checks(seed: int = 20240) -> List[CheckResult]:
    """Run every consistency check on a fixed seed; order is stable."""
    out = []
    for check in _CHECKS:
        rng = np.random.default_rng([seed, _CHECKS.index(check)])
        out.append(check(rng))
    return out
