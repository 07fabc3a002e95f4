"""End-to-end acceptance suite.

Each test emits one ``criterion N: PASS|FAIL`` line; the scoreboard is
echoed after the run via the terminal-summary hook in conftest.
"""

import time

import numpy as np
import pytest

from spdmean import selfcheck
from spdmean.bench import (
    ExperimentSpec,
    SolverSpec,
    SpectrumSpec,
    run_experiment,
)
from spdmean.karcher import Ensemble
from spdmean.selfcheck import random_spd, random_sym, solve_mm
from spdmean.solvers import SolverConfig
from spdmean.spd_core import frob_inner, inv_m, log_m, riem_dist, sym

UNIFORM_REGIME = SpectrumSpec(kind="uniform", dim=10, lo=1.0, hi=10.0)


def _report(num, passed, detail):
    import conftest

    mark = "PASS" if passed else "FAIL"
    line = f"criterion {num}: {mark} — {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert passed, f"criterion {num}: {detail}"


def _first_at_or_below(values, threshold):
    for k, v in enumerate(values):
        if v <= threshold:
            return k
    return None


def _tail_ratios(trace, tail=10):
    """Ratios (F_k - F^)/(F_{k-1} - F^) over the last ``tail`` steps,
    keeping only those whose denominator is above float64 noise on F^."""
    objs = [t.objective for t in trace]
    fhat = objs[-1]
    floor = 1e-12 * (1.0 + abs(fhat))
    ratios = []
    for k in range(max(1, len(objs) - tail), len(objs)):
        den = objs[k - 1] - fhat
        if den > floor:
            ratios.append((objs[k] - fhat) / den)
    return ratios


@pytest.fixture(scope="module")
def fig1_report():
    spec = ExperimentSpec(
        n=10, p=10, spectrum=UNIFORM_REGIME, runs=20, seed=42,
        solvers=[
            SolverSpec(kind="mm", config=SolverConfig(max_iters=300)),
            SolverSpec(kind="gd-ls", config=SolverConfig(nu=1.0, max_iters=300)),
            SolverSpec(kind="gd-ls", config=SolverConfig(nu=4.0, max_iters=300)),
        ])
    return run_experiment(spec)


@pytest.fixture(scope="module")
def fig3_traces():
    def solve(scale):
        spec = ExperimentSpec(
            n=3, p=10, spectrum=UNIFORM_REGIME, runs=1, seed=3, scale_first_by=scale,
            solvers=[SolverSpec(kind="mm", config=SolverConfig(max_iters=500))])
        return run_experiment(spec).results["mm"][0]

    return solve(1.0), solve(1e4)


def test_criterion_01_oracle_agreement():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checks = [selfcheck.check_scalar_oracle(rng, 200),
              selfcheck.check_commuting_oracle(rng, 50),
              selfcheck.check_two_matrix_oracle(rng, 50)]
    elapsed = time.perf_counter() - t0
    worst = max(w for w, _ in checks)
    ok = all(passed for _, passed in checks) and elapsed < 30.0
    _report(1, ok, f"300 oracle instances, worst riem_dist {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_majorization():
    slack, gap, ok = selfcheck.check_majorization(np.random.default_rng(102), 500)
    _report(2, ok, f"500 triples, min slack {slack:.2e}, "
                   f"worst equality gap {gap:.2e}")


def test_criterion_03_minimizer_stationarity():
    worst, ok = selfcheck.check_minimizer_stationarity(np.random.default_rng(103), 200)
    _report(3, ok, f"200 pairs, worst stationarity residual {worst:.2e}")


def test_criterion_04_mm_descent(fig1_report, fig3_traces):
    traces = [res.trace for res in fig1_report.results["mm"]]
    traces += [r.trace for r in fig3_traces]
    worst, ok = selfcheck.check_descent(traces)
    steps = sum(len(trace) - 1 for trace in traces)
    _report(4, ok, f"{steps} MM steps over {len(traces)} benchmark runs, "
                   f"max relative increase {worst:.2e}")


def test_criterion_05_linear_rate(fig1_report):
    worst_ratio = 0.0
    worst_iters = 0
    for res in fig1_report.results["mm"]:
        assert res.converged
        worst_iters = max(worst_iters, res.iters_used)
        for r in _tail_ratios(res.trace):
            worst_ratio = max(worst_ratio, r)
    ok = worst_ratio <= 0.999 and worst_iters <= 200
    _report(5, ok, f"20 instances, max tail ratio {worst_ratio:.3f}, "
                   f"max iterations {worst_iters}")


def test_criterion_06_fig1_qualitative(fig1_report):
    mle = fig1_report.mean_log_error
    cols = {i: c for c, i in enumerate(fig1_report.solver_ids)}
    mm_min = mle[:, cols["mm"]].min()
    gd1_min = mle[:, cols["gd-ls-nu1"]].min()
    gd1_to10 = _first_at_or_below(mle[:, cols["gd-ls-nu1"]], -10.0)
    gd4_to10 = _first_at_or_below(mle[:, cols["gd-ls-nu4"]], -10.0)
    ok = (mm_min <= -20.0 and gd1_min <= -20.0
          and gd1_to10 is not None and gd4_to10 is not None
          and gd1_to10 <= gd4_to10)
    _report(6, ok, f"mean log-error minima mm {mm_min:.1f} / gd1 {gd1_min:.1f}; "
                   f"iterations to -10: gd1 {gd1_to10} vs gd4 {gd4_to10}")


def test_criterion_07_fig3_qualitative(fig3_traces):
    unscaled, scaled = fig3_traces
    k_u = _first_at_or_below([t.log_error for t in unscaled.trace], -10.0)
    k_s = _first_at_or_below([t.log_error for t in scaled.trace], -10.0)
    tail_ok = all(r <= 0.999 for r in _tail_ratios(scaled.trace))
    ok = (unscaled.converged and scaled.converged
          and k_u is not None and k_s is not None and k_s > k_u and tail_ok)
    _report(7, ok, f"iterations to log-error -10: unscaled {k_u}, "
                   f"rescaled {k_s}; both converged, linear tail holds")


def test_criterion_08_derivative_validation():
    rng = np.random.default_rng(108)
    worst = 0.0
    identities = [
        # d<X^{-1}, A> = -X^{-1} A X^{-1}
        (lambda m, a: frob_inner(inv_m(sym(m)), a),
         lambda x, a: -inv_m(x) @ a @ inv_m(x)),
        # d ||log X||_F^2 = 2 X^{-1} log X
        (lambda m, a: np.linalg.norm(log_m(sym(m))) ** 2,
         lambda x, a: 2.0 * inv_m(x) @ log_m(x)),
        # d tr(A X A X) = 2 A X A
        (lambda m, a: frob_inner(m, a @ m @ a),
         lambda x, a: 2.0 * a @ x @ a),
    ]
    for f, grad_at in identities:
        for _ in range(50):
            p = int(rng.integers(2, 5))
            x = random_spd(rng, p, lo=1.0, hi=3.0)
            a = random_sym(rng, p)
            h = random_sym(rng, p)
            h /= np.linalg.norm(h)
            worst = max(worst, selfcheck.fd_gap(lambda m: f(m, a), grad_at(x, a), x, h))
    # the objective gradient, assembled from the pieces above
    worst_obj, ok_obj = selfcheck.check_gradient_fd(rng, 50)
    ok = worst <= 1e-5 and ok_obj
    _report(8, ok, f"200 finite-difference probes, worst relative gap "
                   f"{max(worst, worst_obj):.2e}")


def test_criterion_09_mean_properties():
    rng = np.random.default_rng(109)
    worst_perm = worst_cong = worst_inv = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(2, 6))
        mats = [random_spd(rng, p) for _ in range(n)]
        mean = solve_mm(Ensemble.from_matrices(mats)).mean

        perm = [mats[i] for i in rng.permutation(n)]
        mean_p = solve_mm(Ensemble.from_matrices(perm)).mean
        worst_perm = max(worst_perm, riem_dist(mean, mean_p))

        m = rng.standard_normal((p, p))
        m = m + np.eye(p) * (abs(np.linalg.eigvals(m)).max() + 0.5)
        mean_c = solve_mm(
            Ensemble.from_matrices([sym(m @ a @ m.T) for a in mats])).mean
        worst_cong = max(worst_cong, riem_dist(mean_c, sym(m @ mean @ m.T)))

        mean_i = solve_mm(Ensemble.from_matrices([inv_m(a) for a in mats])).mean
        worst_inv = max(worst_inv, riem_dist(mean_i, inv_m(mean)))
    ok = worst_perm <= 1e-9 and worst_cong <= 1e-7 and worst_inv <= 1e-7
    _report(9, ok, f"20 instances: permutation {worst_perm:.2e}, "
                   f"congruence {worst_cong:.2e}, inversion {worst_inv:.2e}")


def test_criterion_10_numerical_robustness():
    worst, g1g2_ok = selfcheck.check_g1_g2(4801)
    spec = ExperimentSpec(
        n=10, p=10, spectrum=SpectrumSpec(kind="geometric", dim=10, a=0.9), runs=1, seed=10,
        solvers=[SolverSpec(kind="mm", config=SolverConfig(max_iters=500, grad_tol=1e-5))])
    res = run_experiment(spec).results["mm"][0]
    ok = g1g2_ok and res.converged and res.iters_used <= 500
    _report(10, ok, f"g1·g2 worst deviation {worst:.2e} over [1e-12, 1e12]; "
                    f"condition-1e8 regime converged in {res.iters_used} "
                    f"iterations")
