import math

import numpy as np
import pytest

from conftest import commuting_ensemble
from spdmean import solvers, spd_core
from spdmean.errors import DimensionMismatch, DomainError, SpdMeanError
from spdmean.karcher import Ensemble, grad_sum
from spdmean.oracle import commuting_oracle, scalar_karcher_oracle, two_matrix_oracle
from spdmean.selfcheck import random_ensemble, random_spd
from spdmean.solvers import (
    SOLVERS as REGISTRY,
    STATUS_CONVERGED,
    STATUS_DIVERGED,
    STATUS_LINE_SEARCH_STALLED,
    STATUS_MAX_ITERS,
    SolverConfig,
    arithmetic_mean_init,
    gd_fixed_step_solve,
    gd_linesearch_solve,
    mm_solve,
)
from spdmean.spd_core import check_spd, riem_dist

SOLVERS = [mm_solve, gd_linesearch_solve, gd_fixed_step_solve]


def scalar_ensemble(*vals):
    return Ensemble.from_matrices([np.array([[v]]) for v in vals])


class TestSolverConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.max_iters == 500
        assert cfg.nu == 1.0 and cfg.c == 0.5
        assert cfg.effective_grad_tol(1) == pytest.approx(1e-10)
        assert cfg.effective_grad_tol(50) == pytest.approx(5e-9)

    def test_explicit_tol_wins(self):
        assert SolverConfig(grad_tol=1e-6).effective_grad_tol(100) == 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0},
        {"grad_tol": 0.0},
        {"grad_tol": -1.0},
        {"nu": 0.0},
        {"c": 0.0},
        {"c": 1.0},
        {"ls_max_j": 0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)


class TestTrivialExamples:
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_singleton_at_solution(self, solve, rng):
        a = random_spd(rng, 3)
        e = Ensemble.from_matrices([a])
        res = solve(e, SolverConfig(), a)
        assert res.converged and res.status == STATUS_CONVERGED
        assert res.iters_used == 0
        assert len(res.trace) == 1
        assert np.allclose(res.mean, a)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_scalar_pair(self, solve):
        e = scalar_ensemble(1.0, 4.0)
        res = solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.converged
        assert abs(res.mean[0, 0] - 2.0) <= 1e-8

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_scalar_matches_oracle(self, solve, rng):
        vals = rng.uniform(0.5, 5.0, size=6)
        e = scalar_ensemble(*vals)
        want = scalar_karcher_oracle(vals)
        res = solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.converged
        assert abs(res.mean[0, 0] - want) <= 1e-8 * want

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_two_matrix_matches_midpoint(self, solve, rng):
        a, b = random_spd(rng, 4), random_spd(rng, 4)
        e = Ensemble.from_matrices([a, b])
        want = two_matrix_oracle(a, b)
        res = solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.converged
        assert riem_dist(res.mean, want) <= 1e-7

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_commuting_matches_oracle(self, solve, rng):
        e = commuting_ensemble(rng, 5, 4)
        want = commuting_oracle(e)
        res = solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.converged
        assert riem_dist(res.mean, want) <= 1e-7


class TestGdFixedOneStep:
    def test_scalar_first_step(self):
        # E = {1, 4}, X0 = 1, nu = 1:
        # D = (1/2)(log 1 + log 4) = log 2, X1 = exp(log 2) = 2 exactly
        e = scalar_ensemble(1.0, 4.0)
        res = gd_fixed_step_solve(e, SolverConfig(max_iters=1), np.array([[1.0]]))
        assert abs(res.mean[0, 0] - 2.0) <= 1e-12
        assert abs(res.trace[1].objective - 2.0 * math.log(2.0) ** 2) <= 1e-14
        assert res.trace[1].grad_norm <= 1e-14


class TestMmSolve:
    def test_objective_nonincreasing(self, rng):
        e = random_ensemble(rng, 8, 6)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        objs = [t.objective for t in res.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-12 * (1.0 + abs(prev))

    def test_fixed_point_residual(self, rng):
        e = random_ensemble(rng, 6, 5)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert res.converged
        gnorm = float(np.linalg.norm(grad_sum(e, res.mean)))
        assert gnorm < SolverConfig().effective_grad_tol(e.n)

    def test_iterates_stay_spd(self, rng):
        e = random_ensemble(rng, 5, 4, lo=0.1, hi=50.0)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        check_spd(res.mean)

    def test_max_iters_cap(self, rng):
        e = random_ensemble(rng, 5, 4)
        res = mm_solve(e, SolverConfig(max_iters=2), arithmetic_mean_init(e))
        assert not res.converged and res.status == STATUS_MAX_ITERS
        assert res.iters_used == 2
        assert len(res.trace) == 3

    def test_trace_iter_numbers(self, rng):
        e = random_ensemble(rng, 4, 3)
        res = mm_solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert [t.iter for t in res.trace] == list(range(len(res.trace)))
        assert all(t.elapsed >= 0 for t in res.trace)


class TestGdLinesearch:
    def test_objective_nonincreasing_on_accepts(self, rng):
        e = random_ensemble(rng, 8, 6)
        res = gd_linesearch_solve(e, SolverConfig(), arithmetic_mean_init(e))
        objs = [t.objective for t in res.trace]
        for prev, cur in zip(objs, objs[1:]):
            assert cur <= prev + 1e-12 * (1.0 + abs(prev))

    def test_reaches_small_gradient(self, rng):
        # once per-step objective decreases drop below float64 resolution
        # of F the search may stall, so accept either outcome as long as
        # the gradient is already tiny
        e = random_ensemble(rng, 6, 5)
        res = gd_linesearch_solve(e, SolverConfig(grad_tol=1e-8),
                                  arithmetic_mean_init(e))
        assert res.converged or res.status == STATUS_LINE_SEARCH_STALLED
        gnorm = float(np.linalg.norm(grad_sum(e, res.mean)))
        assert gnorm < 1e-6

    def test_probe_counting(self):
        # nu large enough to force backtracking: rejected probes must
        # appear in the trace with the unchanged current objective
        e = scalar_ensemble(1.0, 4.0)
        res = gd_linesearch_solve(
            e, SolverConfig(nu=20.0, grad_tol=1e-6, max_iters=500),
            np.array([[2.5]]))
        assert res.converged
        rejected = [
            i for i in range(1, len(res.trace))
            if res.trace[i].objective == res.trace[i - 1].objective
            and res.trace[i].grad_norm == res.trace[i - 1].grad_norm
        ]
        assert rejected

    def test_stall_status(self):
        # nu = 30 overshoots so wildly that with only j <= 1 probes
        # allowed no trial decreases F
        e = scalar_ensemble(1.0, 4.0)
        res = gd_linesearch_solve(
            e, SolverConfig(nu=30.0, ls_max_j=1, max_iters=50),
            np.array([[2.5]]))
        assert not res.converged
        assert res.status == STATUS_LINE_SEARCH_STALLED

    def test_max_iters_counts_probes(self, rng):
        e = random_ensemble(rng, 6, 5)
        res = gd_linesearch_solve(
            e, SolverConfig(max_iters=4), arithmetic_mean_init(e))
        assert len(res.trace) <= 5


class TestGdFixedStep:
    def test_diverges_with_large_step(self):
        # scalar case: deviation from the mean is multiplied by 1 - nu
        # each step, so nu = 4 triples it and F grows without bound
        e = scalar_ensemble(1.0)
        x0 = np.array([[math.exp(0.01)]])
        res = gd_fixed_step_solve(e, SolverConfig(nu=4.0, max_iters=500), x0)
        assert res.status == STATUS_DIVERGED
        assert not res.converged

    def test_small_step_converges_slower_than_unit(self, rng):
        e = random_ensemble(rng, 5, 4)
        x0 = arithmetic_mean_init(e)
        r1 = gd_fixed_step_solve(e, SolverConfig(nu=1.0), x0)
        r01 = gd_fixed_step_solve(e, SolverConfig(nu=0.1), x0)
        assert r1.converged
        if r01.converged:
            assert r01.iters_used >= r1.iters_used


class TestInvarianceAndAgreement:
    def test_cross_solver_agreement(self, rng):
        e = random_ensemble(rng, 6, 5)
        x0 = arithmetic_mean_init(e)
        cfg = SolverConfig()
        means = [solve(e, cfg, x0).mean for solve in SOLVERS]
        for m in means[1:]:
            assert riem_dist(means[0], m) <= 1e-6

    def test_permutation_invariance(self, rng):
        mats = [random_spd(rng, 4) for _ in range(5)]
        cfg = SolverConfig()
        m1 = mm_solve(Ensemble.from_matrices(mats), cfg,
                      arithmetic_mean_init(Ensemble.from_matrices(mats))).mean
        rev = list(reversed(mats))
        m2 = mm_solve(Ensemble.from_matrices(rev), cfg,
                      arithmetic_mean_init(Ensemble.from_matrices(rev))).mean
        assert riem_dist(m1, m2) <= 1e-8

    def test_congruence_equivariance(self, rng):
        # mean(M A M^T) = M mean(A) M^T
        from spdmean.bench import random_orthogonal
        from spdmean.spd_core import sym

        mats = [random_spd(rng, 4) for _ in range(4)]
        m = random_orthogonal(4, rng) * 1.7
        cfg = SolverConfig()
        e1 = Ensemble.from_matrices(mats)
        mean1 = mm_solve(e1, cfg, arithmetic_mean_init(e1)).mean
        e2 = Ensemble.from_matrices([sym(m @ a @ m.T) for a in mats])
        mean2 = mm_solve(e2, cfg, arithmetic_mean_init(e2)).mean
        assert riem_dist(mean2, sym(m @ mean1 @ m.T)) <= 1e-7

    def test_inversion_equivariance(self, rng):
        # mean(A_i^{-1}) = mean(A_i)^{-1}
        from spdmean.spd_core import inv_m

        mats = [random_spd(rng, 4) for _ in range(4)]
        cfg = SolverConfig()
        e1 = Ensemble.from_matrices(mats)
        mean1 = mm_solve(e1, cfg, arithmetic_mean_init(e1)).mean
        e2 = Ensemble.from_matrices([inv_m(a) for a in mats])
        mean2 = mm_solve(e2, cfg, arithmetic_mean_init(e2)).mean
        assert riem_dist(mean2, inv_m(mean1)) <= 1e-7

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_rejects_non_spd_start(self, solve, rng):
        e = random_ensemble(rng, 3, 3)
        with pytest.raises(DomainError):
            solve(e, SolverConfig(), np.diag([1.0, 1.0, -1.0]))


class TestSharedLoop:
    @pytest.mark.parametrize("solve, kwargs, vals, x0, status, records", [
        # probe cap and ls_max_j run out on the same record: stall wins
        (gd_linesearch_solve, dict(nu=30.0, ls_max_j=1, max_iters=2),
         (1.0, 4.0), 2.5, STATUS_LINE_SEARCH_STALLED, 3),
        (gd_linesearch_solve, dict(nu=30.0, ls_max_j=1, max_iters=1),
         (1.0, 4.0), 2.5, STATUS_MAX_ITERS, 2),
        (gd_linesearch_solve, dict(nu=30.0, ls_max_j=1, max_iters=50),
         (1.0, 4.0), 2.5, STATUS_LINE_SEARCH_STALLED, 3),
        (gd_linesearch_solve, dict(nu=20.0, max_iters=3),
         (1.0, 4.0), 2.5, STATUS_MAX_ITERS, 4),
        (gd_linesearch_solve, dict(), (1.0, 4.0), 2.5, STATUS_CONVERGED, None),
        (mm_solve, dict(max_iters=1), (1.0, 4.0), 2.5, STATUS_MAX_ITERS, 2),
        (mm_solve, dict(), (1.0, 4.0), 2.5, STATUS_CONVERGED, None),
        (mm_solve, dict(), (1.0, 4.0), 2.0, STATUS_CONVERGED, 1),
        # each step of nu = 4 multiplies log x by -3, from 0.01 past the
        # 1e6 guard (|log x| > 10) after 7 steps
        (gd_fixed_step_solve, dict(nu=4.0), (1.0,), math.exp(0.01),
         STATUS_DIVERGED, 8),
        (gd_fixed_step_solve, dict(nu=0.5, max_iters=5),
         (1.0, 4.0), 2.5, STATUS_MAX_ITERS, 6),
    ])
    def test_status_and_trace_length(self, solve, kwargs, vals, x0, status,
                                     records):
        cfg = SolverConfig(**kwargs)
        res = solve(scalar_ensemble(*vals), cfg, np.array([[x0]]))
        assert res.status == status
        assert res.converged == (status == STATUS_CONVERGED)
        assert res.iters_used == len(res.trace) - 1
        assert len(res.trace) <= cfg.max_iters + 1
        if records is not None:
            assert len(res.trace) == records

    def test_registry_is_the_one_list_of_kinds(self):
        import argparse

        from spdmean.bench import SolverSpec
        from spdmean.cli import build_parser

        assert list(REGISTRY.values()) == SOLVERS
        for kind in REGISTRY:
            assert SolverSpec(kind=kind).kind == kind
        with pytest.raises(DomainError):
            SolverSpec(kind="newton")
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        solver = next(a for a in sub.choices["mean"]._actions if a.dest == "solver")
        assert sorted(solver.choices) == sorted(REGISTRY)


# Spectra so far apart that Aᵢ^{-1/2} X Aᵢ^{-1/2} overflows at the start
# point; the mean exists but is out of reach without rescaling.
EXTREME_PAIRS = {
    "1e300": [np.eye(2) * 1e300, np.diag([3e-300, 1e-300])],
    "1e200": [np.eye(2) * 1e200, np.eye(2) * 1e-200],
}


class TestFiniteOrFail:
    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("pair", sorted(EXTREME_PAIRS))
    def test_extreme_magnitudes_raise(self, solve, pair):
        with np.errstate(all="ignore"):
            e = Ensemble.from_matrices(EXTREME_PAIRS[pair])
            with pytest.raises(SpdMeanError):
                solve(e, SolverConfig(), arithmetic_mean_init(e))

    @pytest.mark.parametrize("solve", SOLVERS)
    @pytest.mark.parametrize("pair", sorted(EXTREME_PAIRS))
    def test_overflow_names_matrix(self, solve, pair):
        # the start point is SPD; A₁^{-1/2} X A₁^{-1/2} is what overflows
        with np.errstate(all="ignore"):
            e = Ensemble.from_matrices(EXTREME_PAIRS[pair])
            with pytest.raises(DomainError) as info:
                solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert str(info.value) == "A^(-1/2) X A^(-1/2) overflows float64 for matrix 1"

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_start_point_dimension_checked(self, solve):
        with pytest.raises(DimensionMismatch, match="ensemble dim is 1"):
            solve(scalar_ensemble(1.0, 4.0), SolverConfig(), np.eye(2))

    @pytest.mark.parametrize("f_val, grad", [
        (float("nan"), np.ones((1, 1))),
        (1.0, np.full((1, 1), np.nan)),
    ])
    def test_nan_record_raises(self, f_val, grad):
        def steps(e, cfg, x):
            yield x, 1.0, np.ones((1, 1))
            yield x, f_val, grad

        with pytest.raises(DomainError, match="iterate 1 has objective"):
            solvers._solve(steps, scalar_ensemble(1.0, 4.0), SolverConfig(),
                           np.array([[2.0]]))


class TestSpectralCost:
    def test_one_mm_iteration_is_one_stacked_pass(self, monkeypatch, rng):
        # Count symmetric eigensolver calls and the matrices they cover; a
        # (k, p, p) stack counts k. One MM iteration is the difference
        # between runs capped at two and at one iteration.
        n = 6
        e = random_ensemble(rng, n, 4)
        x0 = arithmetic_mean_init(e)
        calls, checks = [], []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, **kwargs):
                calls.append(math.prod(np.shape(a)[:-2]))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        real_check = spd_core.check_symmetric

        def counted_check(*args, **kwargs):
            checks.append(1)
            return real_check(*args, **kwargs)

        monkeypatch.setattr(spd_core, "check_symmetric", counted_check)
        counts = []
        for cap in (1, 2):
            calls.clear()
            checks.clear()
            res = mm_solve(e, SolverConfig(max_iters=cap, grad_tol=1e-300), x0)
            assert res.iters_used == cap
            counts.append((len(calls), sum(calls), len(checks)))
        n_calls, n_mats, n_checks = np.subtract(counts[1], counts[0])
        # objective, gradient and coefficients share one stacked pass (n
        # matrices) plus X^{-1/2} (1); the minimizer takes one more after
        # its Cholesky factorization; the iterates are never re-validated
        assert n_calls <= 3, counts
        assert n_mats <= n + 2, counts
        assert n_checks == 0, counts
