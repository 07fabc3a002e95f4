import numpy as np
import pytest

from spdmean.bench import random_orthogonal
from spdmean.karcher import Ensemble
from spdmean.spd_core import sym


def random_sym(rng, p, scale=1.0):
    return sym(rng.standard_normal((p, p))) * scale


def commuting_ensemble(rng, n, p, lo=0.5, hi=5.0):
    """Ensemble sharing one eigenbasis, so all members commute."""
    u = random_orthogonal(p, rng)
    return Ensemble.from_matrices(
        [sym((u * rng.uniform(lo, hi, size=p)) @ u.T) for _ in range(n)])


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# scoreboard lines recorded by the acceptance tests, echoed after the
# run so they survive pytest's output capture
acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
