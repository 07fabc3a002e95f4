import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from spdmean import selfcheck, solvers, spd_core
from spdmean.bench import ExperimentSpec, SolverSpec, SpectrumSpec, generate_ensemble
from spdmean.errors import DimensionMismatch, DomainError, SpdMeanError
from spdmean.karcher import Ensemble, grad_sum
from spdmean.oracle import commuting_oracle, scalar_karcher_oracle, two_matrix_oracle
from spdmean.selfcheck import commuting_ensemble, random_ensemble, random_spd, solve_mm
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
from spdmean.spd_core import check_spd, riem_dist, sym

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
        {"grad_tol": math.nan},
        {"nu": math.nan},
        {"grad_tol": math.inf},
        {"nu": math.inf},
        {"max_iters": 10.0},
        {"max_iters": True},
        {"ls_max_j": 1.5},
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
        assert selfcheck.check_descent([res.trace])[-1]

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

    def test_long_run_reaches_two_matrix_mean(self, rng):
        # fig3 regime: A₁ scaled by 1e4 slows MM to over 100 iterations;
        # the carried factor of the iterate must not drift over that many
        # updates. The objective is 2n-strongly geodesically convex, so a
        # converged mean lies within grad_tol / n of the exact one.
        p = 10
        spectrum = SpectrumSpec(kind="uniform", dim=p, lo=1.0, hi=10.0)
        spec = ExperimentSpec(n=2, p=p, spectrum=spectrum, runs=1, seed=0,
                              scale_first_by=1e4, solvers=[SolverSpec(kind="mm")])
        e = generate_ensemble(spec, rng)
        cfg = SolverConfig()
        res = mm_solve(e, cfg, arithmetic_mean_init(e))
        assert res.converged and res.iters_used >= 50
        dist = riem_dist(res.mean, two_matrix_oracle(e.mats[0], e.mats[1]))
        assert dist <= 2.0 * cfg.effective_grad_tol(e.n) / e.n


class TestGdLinesearch:
    def test_objective_nonincreasing_on_accepts(self, rng):
        e = random_ensemble(rng, 8, 6)
        res = gd_linesearch_solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert selfcheck.check_descent([res.trace])[-1]

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

    def test_step_leaving_the_cone_names_step_and_iterate(self, rng):
        # the ensemble of the CLI's failed-solve test: cond(X) reaches 3e11
        # while the objective is still below the divergence guard
        e = Ensemble.from_matrices([random_spd(rng, 4, lo=1.0, hi=10.0) for _ in range(5)])
        with pytest.raises(DomainError, match=r"^gd-fixed step nu=4 left the positive definite "
                                              r"cone at iterate \d+: objective requires a "
                                              r"positive definite point$"):
            gd_fixed_step_solve(e, SolverConfig(nu=4.0), arithmetic_mean_init(e))

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
        m1 = solve_mm(Ensemble.from_matrices(mats)).mean
        m2 = solve_mm(Ensemble.from_matrices(list(reversed(mats)))).mean
        assert riem_dist(m1, m2) <= 1e-8

    def test_congruence_equivariance(self, rng):
        # mean(M A M^T) = M mean(A) M^T
        from spdmean.bench import random_orthogonal
        from spdmean.spd_core import sym

        mats = [random_spd(rng, 4) for _ in range(4)]
        m = random_orthogonal(4, rng) * 1.7
        mean1 = solve_mm(Ensemble.from_matrices(mats)).mean
        mean2 = solve_mm(Ensemble.from_matrices([sym(m @ a @ m.T) for a in mats])).mean
        assert riem_dist(mean2, sym(m @ mean1 @ m.T)) <= 1e-7

    def test_inversion_equivariance(self, rng):
        # mean(A_i^{-1}) = mean(A_i)^{-1}
        from spdmean.spd_core import inv_m

        mats = [random_spd(rng, 4) for _ in range(4)]
        mean1 = solve_mm(Ensemble.from_matrices(mats)).mean
        mean2 = solve_mm(Ensemble.from_matrices([inv_m(a) for a in mats])).mean
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

    def test_layer_entry_points_are_module_globals(self):
        # the benchmark's layer split wraps these names in spdmean.solvers
        for name in ("_solve", "_frame_terms", "_frame_grad", "_frame_objective",
                     "_minimizer_factor"):
            assert callable(getattr(solvers, name, None)), name

    @pytest.mark.parametrize("solve", [gd_linesearch_solve, gd_fixed_step_solve])
    def test_gd_never_builds_the_coefficients(self, solve, monkeypatch, rng):
        def records(res):
            return [(t.iter, t.objective, t.grad_norm, t.log_error) for t in res.trace]

        def fail(e, g):
            raise AssertionError("surrogate coefficients built")

        e = random_ensemble(rng, 5, 4)
        x0 = arithmetic_mean_init(e)
        want = solve(e, SolverConfig(), x0)
        monkeypatch.setattr(solvers, "_frame_terms", fail)
        with pytest.raises(AssertionError, match="coefficients built"):
            mm_solve(e, SolverConfig(), x0)
        got = solve(e, SolverConfig(), x0)
        assert got.status == want.status
        assert records(got) == records(want)
        assert np.array_equal(got.mean, want.mean)


class TestStepProtocol:
    """Steps yield the factor G of each point; the loop forms the mean once."""

    @staticmethod
    def start(rng):
        e = random_ensemble(rng, 4, 3)
        x0 = arithmetic_mean_init(e)
        g0 = np.linalg.cholesky(x0)
        assert not np.array_equal(g0 @ g0.T, x0)  # so the start's bits tell
        return e, x0

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_start_that_meets_tolerance_is_the_mean(self, solve, rng):
        e, x0 = self.start(rng)
        res = solve(e, SolverConfig(grad_tol=1e6), x0)
        assert res.status == STATUS_CONVERGED and res.iters_used == 0
        assert np.array_equal(res.mean, check_spd(x0))

    @pytest.mark.parametrize("e", [
        random_ensemble(np.random.default_rng(0), 5, 4),
        # diagonal: a zero entry of the factor meets an overflowed step, 0 · inf
        Ensemble.from_matrices([np.diag([1.0, 100.0]), np.diag([300.0, 1.0]),
                                np.diag([2.0, 3.0])]),
    ], ids=["random", "diagonal"])
    @pytest.mark.parametrize("nu", [1e3, 1e15])
    def test_probe_that_leaves_float64_is_rejected(self, e, nu):
        # the first probes leave the cone in float64 (1e15: an infinite Ŷᵢ
        # the eigensolver cannot take); their objective is +inf and the run
        # backtracks instead of raising
        res = gd_linesearch_solve(e, SolverConfig(nu=nu), arithmetic_mean_init(e))
        assert res.status in (STATUS_CONVERGED, STATUS_LINE_SEARCH_STALLED, STATUS_MAX_ITERS)
        check_spd(res.mean)
        assert all(math.isfinite(t.objective) for t in res.trace)

    def test_line_search_stalled_before_any_step_returns_the_start(self, rng):
        e, x0 = self.start(rng)
        res = gd_linesearch_solve(e, SolverConfig(nu=30.0, ls_max_j=1), x0)
        assert res.status == STATUS_LINE_SEARCH_STALLED
        assert len({(t.objective, t.grad_norm) for t in res.trace}) == 1
        assert np.array_equal(res.mean, check_spd(x0))

    def test_trace_record_is_immutable_in_csv_column_order(self, tmp_path):
        from spdmean.cli import _write_trace_csv

        rec = solvers.TraceRecord(0, 1.0, 2.0, math.log(2.0), 0.5)
        with pytest.raises(AttributeError):
            rec.objective = 0.0
        _write_trace_csv(tmp_path / "trace.csv", [rec])
        header = (tmp_path / "trace.csv").read_text().split("\n", 1)[0]
        assert tuple(header.split(",")) == solvers.TraceRecord._fields == (
            "iter", "objective", "grad_norm", "log_error", "elapsed")
        assert (rec.iter, rec.grad_norm, rec.elapsed) == (0, 2.0, 0.5)


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

    def test_start_point_without_cholesky_factor(self, monkeypatch):
        def fail(a):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", fail)
        for solve in SOLVERS:
            with pytest.raises(DomainError, match="^solve requires a start point with a "
                                                  "Cholesky factor$"):
                solve(scalar_ensemble(1.0, 4.0), SolverConfig(), np.array([[2.0]]))

    def test_every_cholesky_goes_through_spd_core(self, monkeypatch, rng):
        # the start factor and each MM step's minimizer factor share one boundary
        messages, factors = [], []

        def logged(a, message):
            messages.append(message)
            return real(a, message)

        def counted(a):
            factors.append(a)
            return numpy_cholesky(a)

        real, numpy_cholesky = spd_core.cholesky, np.linalg.cholesky
        monkeypatch.setattr(spd_core, "cholesky", logged)
        monkeypatch.setattr(np.linalg, "cholesky", counted)
        e = random_ensemble(rng, 4, 3)
        res = mm_solve(e, SolverConfig(max_iters=2, grad_tol=1e-300), arithmetic_mean_init(e))
        assert res.iters_used == 2
        assert messages == ["solve requires a start point with a Cholesky factor",
                            *["surrogate_minimizer requires a positive definite c2"] * 2]
        assert len(factors) == len(messages)

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_start_point_sum_near_float64_max(self, solve):
        # the entries of the two matrices sum past the float64 maximum
        big = np.eye(2) * 1.5e308
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            e = Ensemble.from_matrices([big, big])
            x0 = arithmetic_mean_init(e)
            res = solve(e, SolverConfig(), x0)
        assert np.array_equal(x0, big)
        assert res.converged and np.array_equal(res.mean, big)

    def test_start_point_is_the_plain_mean(self, rng):
        # scaling by a power of two before summing is exact
        for scale in (1e-200, 1.0, 1e200):
            for n in (1, 2, 3, 7, 10):
                e = Ensemble.from_matrices([random_spd(rng, 3) * scale for _ in range(n)])
                assert np.array_equal(arithmetic_mean_init(e), sym(np.mean(e.mats, axis=0)))

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
    @staticmethod
    def per_record(monkeypatch, solve, e, cfg, x0):
        """Work between the first and the second trace record after the start.

        Counts symmetric eigensolver calls and the matrices they cover (a
        (k, p, p) stack counts k), symmetry checks and Cholesky
        factorizations, as the difference between runs capped at two and
        at one record after the start point.
        """
        calls, checks, factors = [], [], []

        def counting(real, log, weigh=lambda a: 1):
            def counted(a, *args, **kwargs):
                log.append(weigh(a))
                return real(a, *args, **kwargs)
            return counted

        for name in ("eigh", "eigvalsh"):
            monkeypatch.setattr(np.linalg, name, counting(
                getattr(np.linalg, name), calls, lambda a: math.prod(np.shape(a)[:-2])))
        monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg.cholesky, factors))
        monkeypatch.setattr(spd_core, "check_symmetric",
                            counting(spd_core.check_symmetric, checks))
        counts, traces = [], []
        for cap in (1, 2):
            for log in (calls, checks, factors):
                log.clear()
            res = solve(e, replace(cfg, max_iters=cap, grad_tol=1e-300), x0)
            assert res.iters_used == cap
            counts.append((len(calls), sum(calls), len(checks), len(factors)))
            traces.append(res.trace)
        return np.subtract(counts[1], counts[0]), traces[1]

    def test_one_mm_iteration_is_one_stacked_pass(self, monkeypatch, rng):
        n = 6
        e = random_ensemble(rng, n, 4)
        (n_calls, n_mats, n_checks, n_factors), _ = self.per_record(
            monkeypatch, mm_solve, e, SolverConfig(), arithmetic_mean_init(e))
        # objective, gradient and coefficients share one stacked pass (n
        # matrices) in the iterate's frame; the minimizer takes one more
        # after its Cholesky factorization; the iterates are never
        # re-validated
        assert n_calls <= 2
        assert n_mats <= n + 1
        assert n_checks == 0
        assert n_factors == 1

    def test_one_gd_fixed_iteration_is_one_stacked_pass(self, monkeypatch, rng):
        n = 6
        e = random_ensemble(rng, n, 4)
        (n_calls, n_mats, n_checks, n_factors), _ = self.per_record(
            monkeypatch, gd_fixed_step_solve, e, SolverConfig(), arithmetic_mean_init(e))
        # the stacked pass of the kernel, then one p×p eigendecomposition
        # of the frame gradient for the step
        assert (n_calls, n_mats, n_checks, n_factors) == (2, n + 1, 0, 0)

    def test_one_gd_linesearch_probe_is_one_stacked_values_pass(self, monkeypatch, rng):
        n = 6
        e = random_ensemble(rng, n, 4)
        # steps of 64 and 32 times the descent direction overshoot, so the
        # first two probes are rejected and the second is one record
        (n_calls, n_mats, n_checks, n_factors), trace = self.per_record(
            monkeypatch, gd_linesearch_solve, e, SolverConfig(nu=64.0),
            arithmetic_mean_init(e))
        assert [t.objective for t in trace] == [trace[0].objective] * 3
        assert (n_calls, n_mats, n_checks, n_factors) == (1, n, 0, 0)
