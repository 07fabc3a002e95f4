"""End-to-end acceptance suite.

Each test emits one ``criterion N: PASS|FAIL`` line; the scoreboard is
echoed after the run via the terminal-summary hook in conftest.
"""

import math
import time

import numpy as np
import pytest

from conftest import commuting_ensemble, random_sym
from spdmean.bench import (
    ExperimentSpec,
    SolverSpec,
    SpectrumSpec,
    generate_ensemble,
    run_experiment,
)
from spdmean.karcher import (
    Ensemble,
    euclidean_gradient,
    g1_scalar,
    g2_scalar,
    objective,
    surrogate_coeffs,
    surrogate_minimizer,
    surrogate_value,
)
from spdmean.oracle import (
    commuting_oracle,
    finite_diff_directional,
    scalar_karcher_oracle,
    two_matrix_oracle,
)
from spdmean.selfcheck import random_spd
from spdmean.solvers import SolverConfig, arithmetic_mean_init, mm_solve
from spdmean.spd_core import frob_inner, inv_m, log_m, riem_dist, sym

UNIFORM_REGIME = SpectrumSpec(kind="uniform", dim=10, lo=1.0, hi=10.0)


def _report(num, passed, detail):
    import conftest

    mark = "PASS" if passed else "FAIL"
    line = f"criterion {num}: {mark} — {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert passed, f"criterion {num}: {detail}"


def _solve_mm(e, **cfg):
    return mm_solve(e, SolverConfig(**cfg), arithmetic_mean_init(e))


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
    def solve(scale, seed=3):
        spec = ExperimentSpec(
            n=3, p=10, spectrum=UNIFORM_REGIME, runs=1, seed=seed,
            scale_first_by=scale, solvers=[SolverSpec(kind="mm")])
        child = np.random.SeedSequence(seed).spawn(1)[0]
        e = generate_ensemble(spec, np.random.Generator(np.random.PCG64(child)))
        return _solve_mm(e, max_iters=500)

    return solve(1.0), solve(1e4)


def test_criterion_01_oracle_agreement():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        vals = rng.uniform(0.2, 8.0, size=n)
        e = Ensemble.from_matrices([np.array([[v]]) for v in vals])
        res = _solve_mm(e)
        want = np.array([[scalar_karcher_oracle(vals)]])
        worst = max(worst, riem_dist(res.mean, want))
    for _ in range(50):
        p = int(rng.integers(2, 7))
        e = commuting_ensemble(rng, int(rng.integers(2, 6)), p)
        worst = max(worst, riem_dist(_solve_mm(e).mean, commuting_oracle(e)))
    for _ in range(50):
        p = int(rng.integers(2, 7))
        a, b = random_spd(rng, p), random_spd(rng, p)
        e = Ensemble.from_matrices([a, b])
        worst = max(worst, riem_dist(_solve_mm(e).mean, two_matrix_oracle(a, b)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 30.0
    _report(1, ok, f"300 oracle instances, worst riem_dist {worst:.2e}, "
                   f"{elapsed:.1f}s")


def test_criterion_02_majorization():
    rng = np.random.default_rng(102)
    worst_slack = math.inf
    worst_eq = 0.0
    for _ in range(500):
        p = int(rng.integers(1, 6))
        n = int(rng.integers(1, 5))
        e = Ensemble.from_matrices([random_spd(rng, p) for _ in range(n)])
        x = random_spd(rng, p)
        xp = random_spd(rng, p)
        s = surrogate_coeffs(e, xp)
        f_x = objective(e, x)
        slack = (surrogate_value(s, x) - f_x) / (1.0 + abs(f_x))
        worst_slack = min(worst_slack, slack)
        f_xp = objective(e, xp)
        eq = abs(surrogate_value(s, xp) - f_xp) / (1.0 + abs(f_xp))
        worst_eq = max(worst_eq, eq)
    ok = worst_slack >= -1e-9 and worst_eq <= 1e-10
    _report(2, ok, f"500 triples, min slack {worst_slack:.2e}, "
                   f"worst equality gap {worst_eq:.2e}")


def test_criterion_03_minimizer_stationarity():
    rng = np.random.default_rng(103)
    worst = 0.0
    for _ in range(200):
        p = int(rng.integers(1, 7))
        c1, c2 = random_spd(rng, p), random_spd(rng, p)
        x = surrogate_minimizer(c1, c2)
        xi = inv_m(x)
        resid = np.linalg.norm(c1 - xi @ c2 @ xi) / np.linalg.norm(c1)
        worst = max(worst, resid)
    ok = worst <= 1e-9
    _report(3, ok, f"200 pairs, worst stationarity residual {worst:.2e}")


def test_criterion_04_mm_descent(fig1_report, fig3_traces):
    worst = -math.inf
    count = 0
    traces = [res.trace for res in fig1_report.results["mm"]]
    traces += [r.trace for r in fig3_traces]
    for trace in traces:
        objs = [t.objective for t in trace]
        for prev, cur in zip(objs, objs[1:]):
            worst = max(worst, (cur - prev) / (1.0 + abs(prev)))
            count += 1
    ok = worst <= 1e-12
    _report(4, ok, f"{count} MM steps over 22 benchmark runs, "
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

    def check(f, grad_at):
        nonlocal worst
        for _ in range(50):
            p = int(rng.integers(2, 5))
            x = random_spd(rng, p, lo=1.0, hi=3.0)
            a = random_sym(rng, p)
            h = random_sym(rng, p)
            h /= np.linalg.norm(h)
            fd = finite_diff_directional(lambda m: f(m, a), x, h, 1e-6)
            an = frob_inner(grad_at(x, a), h)
            worst = max(worst, abs(fd - an) / max(1.0, abs(an)))

    # d<X^{-1}, A> = -X^{-1} A X^{-1}
    check(lambda m, a: frob_inner(inv_m(sym(m)), a),
          lambda x, a: -inv_m(x) @ a @ inv_m(x))
    # d ||log X||_F^2 = 2 X^{-1} log X
    check(lambda m, a: np.linalg.norm(log_m(sym(m))) ** 2,
          lambda x, a: 2.0 * inv_m(x) @ log_m(x))
    # d tr(A X A X) = 2 A X A
    check(lambda m, a: frob_inner(m, a @ m @ a),
          lambda x, a: 2.0 * a @ x @ a)
    # objective gradient, assembled from the pieces above
    for _ in range(50):
        p = int(rng.integers(2, 5))
        e = Ensemble.from_matrices(
            [random_spd(rng, p) for _ in range(int(rng.integers(1, 4)))])
        x = random_spd(rng, p, lo=1.0, hi=3.0)
        h = random_sym(rng, p)
        h /= np.linalg.norm(h)
        fd = finite_diff_directional(lambda m: objective(e, sym(m)), x, h, 1e-6)
        an = frob_inner(euclidean_gradient(e, x), h)
        worst = max(worst, abs(fd - an) / max(1.0, abs(an)))
    ok = worst <= 1e-5
    _report(8, ok, f"200 finite-difference probes, worst relative gap "
                   f"{worst:.2e}")


def test_criterion_09_mean_properties():
    rng = np.random.default_rng(109)
    worst_perm = worst_cong = worst_inv = 0.0
    for _ in range(20):
        p = int(rng.integers(2, 7))
        n = int(rng.integers(2, 6))
        mats = [random_spd(rng, p) for _ in range(n)]
        mean = _solve_mm(Ensemble.from_matrices(mats)).mean

        perm = [mats[i] for i in rng.permutation(n)]
        mean_p = _solve_mm(Ensemble.from_matrices(perm)).mean
        worst_perm = max(worst_perm, riem_dist(mean, mean_p))

        m = rng.standard_normal((p, p))
        m = m + np.eye(p) * (abs(np.linalg.eigvals(m)).max() + 0.5)
        mean_c = _solve_mm(
            Ensemble.from_matrices([sym(m @ a @ m.T) for a in mats])).mean
        worst_cong = max(worst_cong, riem_dist(mean_c, sym(m @ mean @ m.T)))

        mean_i = _solve_mm(Ensemble.from_matrices([inv_m(a) for a in mats])).mean
        worst_inv = max(worst_inv, riem_dist(mean_i, inv_m(mean)))
    ok = worst_perm <= 1e-9 and worst_cong <= 1e-7 and worst_inv <= 1e-7
    _report(9, ok, f"20 instances: permutation {worst_perm:.2e}, "
                   f"congruence {worst_cong:.2e}, inversion {worst_inv:.2e}")


def test_criterion_10_numerical_robustness():
    xs = 10.0 ** np.linspace(-12.0, 12.0, 4801)
    worst = max(abs(g1_scalar(x) * g2_scalar(x) - 1.0) for x in xs)
    spec = ExperimentSpec(
        n=10, p=10, spectrum=SpectrumSpec(kind="geometric", dim=10, a=0.9),
        runs=1, seed=10, solvers=[SolverSpec(kind="mm")])
    child = np.random.SeedSequence(10).spawn(1)[0]
    e = generate_ensemble(spec, np.random.Generator(np.random.PCG64(child)))
    res = _solve_mm(e, max_iters=500, grad_tol=1e-5)
    ok = worst <= 1e-14 and res.converged and res.iters_used <= 500
    _report(10, ok, f"g1·g2 worst deviation {worst:.2e} over [1e-12, 1e12]; "
                    f"condition-1e8 regime converged in {res.iters_used} "
                    f"iterations")
