import numpy as np
import pytest


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
