"""Karcher means of symmetric positive definite matrices.

A majorization-minimization solver for the matrix geometric mean, plus
gradient-descent baselines, closed-form oracles, and a benchmark
harness. See the ``spdmean`` CLI for file-based usage.
"""

from .bench import (
    ExperimentReport,
    ExperimentSpec,
    SolverSpec,
    SpectrumSpec,
    generate_ensemble,
    random_orthogonal,
    run_experiment,
)
from .errors import (
    DimensionMismatch,
    DomainError,
    NonConvergence,
    NotCommuting,
    SpdMeanError,
)
from .karcher import (
    Ensemble,
    SurrogateCoeffs,
    g1_scalar,
    g2_scalar,
    objective,
    surrogate_coeffs,
    surrogate_minimizer,
    surrogate_value,
)
from .oracle import (
    commuting_oracle,
    finite_diff_directional,
    scalar_karcher_oracle,
    two_matrix_oracle,
)
from .solvers import (
    SolverConfig,
    SolverResult,
    TraceRecord,
    arithmetic_mean_init,
    gd_fixed_step_solve,
    gd_linesearch_solve,
    mm_solve,
)
from .spd_core import (
    check_spd,
    exp_m,
    frob_inner,
    geodesic,
    inv_m,
    inv_sqrt_m,
    log_m,
    pow_m,
    riem_dist,
    sqrt_m,
)

__version__ = "0.1.0"
