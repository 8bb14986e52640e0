"""Shared fixtures for the peelcore test suite.

Heavy objects (critical constants, the min-law tables) are computed once per
session.  The acceptance tests additionally register a one-line verdict per
end-to-end check which is echoed in the terminal summary.
"""

import pytest

from peelcore.ode import critical_constants
from peelcore.airy import omega_integral


@pytest.fixture(scope="session")
def cc3():
    # ten times finer than the default step: the reference the default is checked against
    return critical_constants(3, h=1e-4)


@pytest.fixture(scope="session")
def cc3_omega(cc3):
    return cc3.with_omega(omega_integral())


class _NoDraws:
    """An rng whose every draw fails, so a bad argument cannot reach sampling."""

    def __getattr__(self, name):
        raise AssertionError(f"rng.{name} used before the arguments were checked")


@pytest.fixture
def no_draws():
    return _NoDraws()


# ---------------------------------------------------------------------------
# Acceptance reporting: each acceptance test appends "[cNN] PASS/FAIL - detail"
# and the summary hook prints them all at the end of the run.

_ACCEPTANCE_LINES = []


@pytest.fixture(scope="session")
def acceptance_lines():
    return _ACCEPTANCE_LINES


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("end-to-end checks")
    for line in sorted(_ACCEPTANCE_LINES):
        terminalreporter.write_line(line)
