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

It is also monotone and sits between the harmonic and arithmetic means
(Ando, Li & Mathias 2004; Lawson & Lim 2014), and it contracts
(Sturm 2003, Thm 6.3). For Loewner orders and distances:

* AGH order    H ≤ G ≤ A, H = ((1/n) Σ Aᵢ⁻¹)⁻¹ and A = (1/n) Σ Aᵢ
* monotone     Aᵢ ≤ Bᵢ for all i gives G(A) ≤ G(B)
* contraction  d(G(A), G(B)) ≤ (1/n) Σ d(Aᵢ, Bᵢ)

The mean is symmetric in its arguments, so the last two hold for Bᵢ
paired with any permutation of the Aᵢ, which tests the weight of each
Aᵢ apart. Each solve's own certificate δ = ‖ĝ‖/n, with d(X, G) ≤ δ,
sets these tests' tolerance, since it gives X ≤ e^δ G and G ≤ e^δ X; a
converged run must certify what the default tolerance promises, δ ≤ 1e-10.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spdmean.bench import random_orthogonal
from spdmean.karcher import Ensemble
from spdmean.selfcheck import random_spd, solve_mm
from spdmean.solvers import DEFAULT_GRAD_TOL_PER_MAT, STATUS_CONVERGED
from spdmean.spd_core import geodesic, inv_m, inv_sqrt_m, riem_dist, sym

FLOOR = 2 * DEFAULT_GRAD_TOL_PER_MAT
# Relative rounding band of a Loewner comparison of two means and of a sum of distances:
# p·κ·ε with p ≤ 4 and condition κ ≤ 100 is below 1e-13
BAND = 1e-12
# How far apart the pairs Aᵢ, Bᵢ (or the Aᵢ around a common point) are drawn: 0 is a
# permutation alone, and a small spread makes each order nearly tight
SPREADS = (0.0, 1e-3, 0.1, 1.0)

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


def certified_mean(mats):
    """MM's mean X of ``mats`` and its certificate δ = ‖ĝ‖/n ≥ d(X, X*)."""
    res = solve_mm(Ensemble.from_matrices(mats))
    bound = res.trace[-1].grad_norm / len(mats)
    assert res.status == STATUS_CONVERGED and bound <= DEFAULT_GRAD_TOL_PER_MAT, (res.status, bound)
    return res.mean, bound


def loewner_top(x, y):
    """The least c with x ≤ c·y: the largest eigenvalue of y^{-1/2} x y^{-1/2}."""
    w = inv_sqrt_m(y)
    return np.linalg.eigvalsh(sym(w @ x @ w))[-1]


@st.composite
def pairings(draw):
    """(rng, mats, order, spread): :func:`instances` with a permutation and one of ``SPREADS``."""
    rng, mats = draw(instances())
    return rng, mats, draw(st.permutations(range(len(mats)))), draw(st.sampled_from(SPREADS))


@PROPERTY
@given(pairings())
def test_the_mean_lies_between_the_harmonic_and_arithmetic_means(pairing):
    # each Aᵢ is moved to t = spread on the geodesic from a common point, so at small spreads
    # both orders are nearly tight: A − X* and X* − H shrink as the square of the spread
    rng, mats, _, spread = pairing
    base = random_spd(rng, len(mats[0]), 0.1, 10.0)
    mats = [geodesic(base, a, spread) for a in mats]
    x, bound = certified_mean(mats)
    arith = np.mean(mats, axis=0)
    harm = inv_m(np.mean([inv_m(a) for a in mats], axis=0))
    assert loewner_top(x, arith) <= np.exp(bound) * (1 + BAND)
    assert loewner_top(harm, x) <= np.exp(bound) * (1 + BAND)


@PROPERTY
@given(pairings())
def test_the_mean_is_monotone(pairing):
    # Bᵢ = A_σ(i) + spread·Pᵢ with Pᵢ ≥ 0, so X*(A) ≤ X*(B) and X_A ≤ e^{δA + δB} X_B
    rng, mats, order, spread = pairing
    more = [mats[j] + spread * random_spd(rng, len(a), 0.0, 1.0) for a, j in zip(mats, order)]
    (x_a, bound_a), (x_b, bound_b) = certified_mean(mats), certified_mean(more)
    assert loewner_top(x_a, x_b) <= np.exp(bound_a + bound_b) * (1 + BAND)


@PROPERTY
@given(pairings())
def test_the_mean_contracts(pairing):
    # Bᵢ on the geodesic from A_σ(i) at the spread's t: d(A_σ(i), Bᵢ) = t·d(A_σ(i), Cᵢ)
    rng, mats, order, spread = pairing
    near = [geodesic(mats[j], random_spd(rng, len(a), 0.1, 10.0), spread)
            for a, j in zip(mats, order)]
    (x_a, bound_a), (x_b, bound_b) = certified_mean(mats), certified_mean(near)
    mean_step = np.mean([riem_dist(mats[j], b) for j, b in zip(order, near)])
    assert riem_dist(x_a, x_b) <= mean_step * (1 + BAND) + bound_a + bound_b + BAND
