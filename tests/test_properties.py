"""Equivariance of the MM mean, as hypothesis properties.

The Karcher mean G of {Aᵢ} satisfies, exactly:

* congruence   mean{M Aᵢ Mᵀ} = M G Mᵀ for nonsingular M
* permutation  the order of the Aᵢ does not matter
* inversion    mean{Aᵢ⁻¹} = G⁻¹
* scaling      mean{cᵢ Aᵢ} = (Π cᵢ)^{1/n} G for cᵢ > 0

Each map is an isometry of the affine-invariant metric (scaling by
the common factor (Π cᵢ)^{1/n} after the cᵢ are absorbed by the mean).
F = Σ dist²(·, Aᵢ) is 2n-strongly geodesically convex and its
Riemannian gradient has norm 2‖Σᵢ log(X^{-1/2} Aᵢ X^{-1/2})‖_F, so a
converged MM mean lies within grad_tol / n of the exact one, and two
converged means of equivalent problems within twice that: the floor.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmean.bench import random_orthogonal
from spdmean.karcher import Ensemble
from spdmean.selfcheck import random_spd, solve_mm
from spdmean.solvers import DEFAULT_GRAD_TOL_PER_MAT, STATUS_CONVERGED
from spdmean.spd_core import inv_m, riem_dist, sym

FLOOR = 2 * DEFAULT_GRAD_TOL_PER_MAT

PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@st.composite
def instances(draw):
    """(rng, mats): n ≤ 5 random p×p SPD matrices, p ≤ 4, spectra in [0.1, 10]."""
    n = draw(st.integers(1, 5))
    p = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng, [random_spd(rng, p, 0.1, 10.0) for _ in range(n)]


def mm_mean(mats):
    res = solve_mm(Ensemble.from_matrices(mats))
    assert res.status == STATUS_CONVERGED, res.status
    return res.mean


@PROPERTY
@given(instances())
def test_congruence(instance):
    rng, mats = instance
    p = len(mats[0])
    m = (random_orthogonal(p, rng) * 10.0 ** rng.uniform(-1, 1, size=p)) \
        @ random_orthogonal(p, rng)
    moved = mm_mean([sym(m @ a @ m.T) for a in mats])
    assert riem_dist(sym(m @ mm_mean(mats) @ m.T), moved) <= FLOOR


@PROPERTY
@given(instances(), st.data())
def test_permutation(instance, data):
    _, mats = instance
    order = data.draw(st.permutations(range(len(mats))))
    assert riem_dist(mm_mean(mats), mm_mean([mats[i] for i in order])) <= FLOOR


@PROPERTY
@given(instances())
def test_inversion(instance):
    _, mats = instance
    assert riem_dist(inv_m(mm_mean(mats)), mm_mean([inv_m(a) for a in mats])) <= FLOOR


@PROPERTY
@given(instances(), st.data())
def test_joint_scaling(instance, data):
    _, mats = instance
    c = np.array(data.draw(st.lists(st.floats(1e-3, 1e3), min_size=len(mats),
                                    max_size=len(mats))))
    scaled = mm_mean([ci * a for ci, a in zip(c, mats)])
    factor = np.exp(np.mean(np.log(c)))
    assert riem_dist(factor * mm_mean(mats), scaled) <= FLOOR
