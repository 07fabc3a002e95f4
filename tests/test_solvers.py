import math
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from spdmean import selfcheck, solvers, spd_core
from spdmean.bench import ExperimentSpec, SolverSpec, SpectrumSpec, generate_ensemble
from spdmean.errors import DimensionMismatch, DomainError, NonConvergence, SpdMeanError
from spdmean.karcher import Ensemble, _frame_eigh, _frame_grad, grad_sum, objective
from spdmean.oracle import commuting_oracle, scalar_karcher_oracle, two_matrix_oracle
from spdmean.selfcheck import commuting_ensemble, random_ensemble, random_spd, solve_mm
from spdmean.solvers import (
    LS_MAX_J,
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
        assert cfg.nu == 1.0 and cfg.grad_tol is None
        assert [f.name for f in fields(SolverConfig)] == ["max_iters", "grad_tol", "nu"]
        assert cfg.effective_grad_tol(1) == pytest.approx(1e-10)
        assert cfg.effective_grad_tol(50) == pytest.approx(5e-9)

    def test_explicit_tol_wins(self):
        assert SolverConfig(grad_tol=1e-6).effective_grad_tol(100) == 1e-6

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": 0},
        {"grad_tol": 0.0},
        {"grad_tol": -1.0},
        {"nu": 0.0},
        {"nu": -1.0},
        {"max_iters": -1},
        {"max_iters": "10"},
        {"grad_tol": math.nan},
        {"nu": math.nan},
        {"grad_tol": math.inf},
        {"nu": math.inf},
        {"max_iters": 10.0},
        {"max_iters": True},
        {"nu": -math.inf},
        {"nu": True},
        {"grad_tol": True},
        {"nu": "1.0"},
        {"grad_tol": "1e-6"},
        {"nu": 10 ** 400},
        {"grad_tol": 10 ** 400},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(DomainError):
            SolverConfig(**kwargs)

    def test_line_search_settings_are_constants(self):
        # the backtracking factor and the probe cap are not settable
        with pytest.raises(TypeError):
            SolverConfig(c=0.5)
        with pytest.raises(DomainError, match=r"^unknown solver fields: \['c'\]$"):
            SolverSpec.from_dict({"kind": "gd-ls", "c": 0.5})


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

    def test_blocked_inverse_factors_move_the_solve_at_round_off(self, rng):
        # at p > spd_core.TRI_BLOCK the inverse factors come from the blocked
        # triangular inverse; with numpy's LU inverse instead, the solve
        # takes the same path to within round-off
        e = random_ensemble(rng, 4, 40)
        lu = Ensemble(mats=e.mats, inv_factors=np.linalg.inv(np.linalg.cholesky(e.mats)))
        assert not np.array_equal(e.inv_factors, lu.inv_factors)
        x0 = arithmetic_mean_init(e)
        res, ref = (mm_solve(ens, SolverConfig(), x0) for ens in (e, lu))
        assert res.converged and (res.status, res.iters_used) == (ref.status, ref.iters_used)
        assert riem_dist(res.mean, ref.mean) <= 1e-10

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
        # nu = 1e20 overshoots so wildly that no probe down to
        # LS_FACTOR**LS_MAX_J * nu ≈ 87 decreases F
        e = scalar_ensemble(1.0, 4.0)
        res = gd_linesearch_solve(e, SolverConfig(nu=1e20), np.array([[2.5]]))
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
        # nu = 1e20: every probe j = 0..LS_MAX_J overshoots; the probe cap
        # and the last probe run out on the same record: stall wins
        (gd_linesearch_solve, dict(nu=1e20, max_iters=LS_MAX_J + 1),
         (1.0, 4.0), 2.5, STATUS_LINE_SEARCH_STALLED, LS_MAX_J + 2),
        (gd_linesearch_solve, dict(nu=1e20, max_iters=LS_MAX_J),
         (1.0, 4.0), 2.5, STATUS_MAX_ITERS, LS_MAX_J + 1),
        (gd_linesearch_solve, dict(nu=1e20),
         (1.0, 4.0), 2.5, STATUS_LINE_SEARCH_STALLED, LS_MAX_J + 2),
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

    def test_result_derives_converged_and_iters_used(self, rng):
        # only the mean, the trace and the status are stored, so the rest cannot disagree
        res = mm_solve(random_ensemble(rng, 3, 2), SolverConfig(), np.eye(2))
        assert [f.name for f in fields(res)] == ["mean", "trace", "status"]
        assert res.converged and res.iters_used == len(res.trace) - 1
        with pytest.raises(AttributeError):
            res.converged = False

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

        def fail(frame):
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
        res = gd_linesearch_solve(e, SolverConfig(nu=1e20), x0)
        assert res.status == STATUS_LINE_SEARCH_STALLED
        assert len({(t.objective, t.grad_norm) for t in res.trace}) == 1
        assert np.array_equal(res.mean, check_spd(x0))

    def test_trace_record_is_immutable_in_csv_column_order(self):
        from spdmean.cli import _trace_to_csv

        rec = solvers.TraceRecord(0, 1.0, 2.0, math.log(2.0), 0.5)
        with pytest.raises(AttributeError):
            rec.objective = 0.0
        header = _trace_to_csv([rec]).split("\n", 1)[0]
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

    @pytest.mark.parametrize("call", [
        *(pytest.param(lambda e, x, solve=solve: solve(e, SolverConfig(), x), id=solve.__name__)
          for solve in SOLVERS),
        pytest.param(objective, id="objective"),
    ])
    def test_infinite_gram_matrix_names_matrix(self, call):
        # Ŷ₀ = X / A₀ is +inf, which the eigensolver takes as an eigenvalue;
        # its objective is not finite
        e = scalar_ensemble(1e-217, 6e-67, 2e178, 5e222, 3e210, 7e275)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError) as info:
                call(e, arithmetic_mean_init(e))
        assert str(info.value) == "A^(-1/2) X A^(-1/2) overflows float64 for matrix 0"

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_gram_stack_the_eigensolver_cannot_take_names_matrix(self, solve):
        # A₀ is subnormal, so Ŷ₀ = Gᵀ A₀⁻¹ G overflows to a stack that LAPACK
        # fails on before the positivity test could read it
        rng = np.random.default_rng(1)
        e = Ensemble.from_matrices([random_spd(rng, 4) * 1e-320, random_spd(rng, 4),
                                    random_spd(rng, 4)])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError) as info:
                solve(e, SolverConfig(), arithmetic_mean_init(e))
        assert str(info.value) == "A^(-1/2) X A^(-1/2) overflows float64 for matrix 0"

    def test_eigensolver_failure_on_a_finite_stack_is_non_convergence(self, monkeypatch, rng):
        # a finite Gram stack did not overflow, so the failure is not blamed on a matrix
        def eigh(m, *args, **kwargs):
            if np.ndim(m) == 3:
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real_eigh(m, *args, **kwargs)

        real_eigh = np.linalg.eigh
        e = random_ensemble(rng, 3, 3)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        with pytest.raises(NonConvergence, match="^symmetric eigensolver failed: "
                                                 "Eigenvalues did not converge$"):
            mm_solve(e, SolverConfig(), arithmetic_mean_init(e))

    def test_start_point_without_cholesky_factor(self, monkeypatch, rng):
        # validation accepts the start point on its eigenvalues and hands
        # the solve its spectral factor U D^{1/2}, as for an ensemble member;
        # the solve takes no second factor of it
        e = random_ensemble(rng, 5, 4)
        x0 = arithmetic_mean_init(e)
        wants = [solve(e, SolverConfig(), x0) for solve in SOLVERS]
        refused, others = [], set()

        def validation_fails(a, message):
            if message == "stack has no Cholesky factor":
                refused.append(a)
                raise DomainError(message)
            others.add(message)
            return real(a, message)

        real = spd_core.cholesky
        monkeypatch.setattr(spd_core, "cholesky", validation_fails)
        for solve, want in zip(SOLVERS, wants):
            refused.clear()
            got = solve(e, SolverConfig(), x0)
            assert len(refused) == 1
            assert others <= {"surrogate_minimizer requires a positive definite c2"}
            assert riem_dist(got.mean, want.mean) <= 1e-8
            if solve is gd_linesearch_solve:  # whether it stalls is decided by round-off
                assert got.status in (STATUS_CONVERGED, STATUS_LINE_SEARCH_STALLED)
            else:
                assert (got.status, got.iters_used) == (want.status, want.iters_used)

    def test_every_cholesky_goes_through_spd_core(self, monkeypatch, rng):
        # ensemble validation, start-point validation (whose factor is G₀)
        # and each MM step's minimizer factor share one boundary
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
        assert messages == [*["stack has no Cholesky factor"] * 2,
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
    def counters(monkeypatch):
        """Logs of symmetric eigensolver calls, validation passes and Cholesky calls.

        An eigensolver call logs the number of matrices it covers (a
        (k, p, p) stack counts k); a validation pass is a call of
        ``spd_core._symmetrized``, which every validator runs. ``counts()``
        gives (calls, matrices, checks, factorizations) so far, ``clear()``
        starts again.
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
        monkeypatch.setattr(spd_core, "_symmetrized", counting(spd_core._symmetrized, checks))

        def counts():
            return len(calls), sum(calls), len(checks), len(factors)

        def clear():
            for log in (calls, checks, factors):
                log.clear()
        return counts, clear

    @classmethod
    def per_record(cls, monkeypatch, solve, e, cfg, x0):
        """Work between the first and the second trace record after the start.

        The :meth:`counters` as the difference between runs capped at two
        and at one record after the start point.
        """
        counts, clear = cls.counters(monkeypatch)
        runs, traces = [], []
        for cap in (1, 2):
            clear()
            res = solve(e, replace(cfg, max_iters=cap, grad_tol=1e-300), x0)
            assert res.iters_used == cap
            runs.append(counts())
            traces.append(res.trace)
        return np.subtract(runs[1], runs[0]), traces[1]

    def test_set_up_and_start_point_take_one_cholesky_each(self, monkeypatch, rng):
        # validation takes one pass and one Cholesky for the well-conditioned
        # stack and for the start point, and no eigensolver; the start
        # point's factor is G₀
        mats = [random_spd(rng, 4) for _ in range(6)]
        counts, clear = self.counters(monkeypatch)
        e = Ensemble.from_matrices(mats)
        assert counts() == (0, 0, 1, 1)
        x0 = arithmetic_mean_init(e)
        starts = []

        def steps(e, cfg, g):
            starts.append(g)
            yield g, 0.0, np.zeros_like(g)

        clear()
        res = solvers._solve(steps, e, SolverConfig(), x0)
        assert counts() == (0, 0, 1, 1)
        assert res.converged and np.array_equal(res.mean, x0)
        assert np.array_equal(starts[0], np.linalg.cholesky(x0))

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

    def test_a_step_reads_the_pass_of_its_record(self, monkeypatch, rng):
        # fixed-step GD rebuilt from the pass and its gradient reduction: the
        # step reads z and Û of every record, and each record still costs
        # exactly one stacked eigensolver call
        e = random_ensemble(rng, 5, 4)
        x0, cfg = arithmetic_mean_init(e), SolverConfig(max_iters=6, grad_tol=1e-300)
        stacked, seen = [], []
        real = np.linalg.eigh

        def counted(a, *args, **kwargs):
            stacked.append(np.ndim(a) == 3)
            return real(a, *args, **kwargs)

        def steps(e, cfg, g):
            while True:
                frame = _frame_eigh(e, g)
                _, z, u = frame
                calls, rebuilt = sum(stacked), -np.einsum("ijk,ik,ilk->jl", u, z, u)
                f_val, grad = _frame_grad(frame)
                seen.append((calls, np.linalg.norm(rebuilt - grad) / math.sqrt(f_val)))
                yield g, f_val, grad
                lam, v = spd_core.eigh(grad / e.n)
                g = (g @ v) * np.exp(0.5 * cfg.nu * lam)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        res = solvers._solve(steps, e, cfg, x0)
        assert sum(stacked) == len(res.trace) == len(seen) == cfg.max_iters + 1
        want = gd_fixed_step_solve(e, cfg, x0)
        assert [t[:4] for t in res.trace] == [t[:4] for t in want.trace]
        assert np.array_equal(res.mean, want.mean)
        # the gradient −Σᵢ Ûᵢ D(zᵢ) Ûᵢᵀ, rebuilt from the pass the step read
        assert [calls for calls, _ in seen] == list(range(1, len(seen) + 1))
        assert max(err for _, err in seen) <= 1e-13

    @staticmethod
    def peak_stacks(rng, solve):
        """Peak traced allocation of three iterations at n = p = 50, in (n, p, p) stacks."""
        e = random_ensemble(rng, 50, 50)
        x0 = arithmetic_mean_init(e)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            solve(e, SolverConfig(max_iters=3), x0)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / e.mats.nbytes

    def test_mm_kernel_holds_two_stacks(self, rng):
        # the Gram stack and its eigenvectors, then the eigenvectors and one
        # scaled copy of their rows; never three (n, p, p) stacks at once
        assert self.peak_stacks(rng, mm_solve) <= 2.5

    @pytest.mark.parametrize("solve", [gd_fixed_step_solve, gd_linesearch_solve],
                             ids=["gd-fixed", "gd-ls"])
    def test_gd_kernel_holds_two_stacks(self, rng, solve):
        # the Gram stack and its eigenvectors, then the eigenvector rows and
        # their scaled copy; never three (n, p, p) stacks at once
        assert self.peak_stacks(rng, solve) <= 2.5

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
