"""Shared fixtures.

Characterisation is the expensive step (gate-level simulation of the full
characterisation suite), so one result is shared session-wide; tests must
treat it as read-only.
"""

import pytest

from repro.api import Session
from repro.flow.evaluate import SweepConfig
from repro.timing.design import build_design
from repro.timing.profiles import DesignVariant


def pytest_addoption(parser):
    parser.addoption(
        "--update-golden", action="store_true", default=False,
        help="regenerate the golden compiled-trace corpus under "
             "tests/golden/ instead of comparing against it",
    )


@pytest.fixture
def update_golden(request):
    return request.config.getoption("--update-golden")


@pytest.fixture(scope="session")
def design():
    """The critical-range design at 0.70 V (the paper's configuration)."""
    return build_design(DesignVariant.CRITICAL_RANGE)


@pytest.fixture(scope="session")
def conventional_design():
    return build_design(DesignVariant.CONVENTIONAL)


@pytest.fixture(scope="session")
def evaluate_one(design):
    """``evaluate_one(program, policy, **config)``: the batch engine's
    ``EvaluationResult`` for one program under one clock configuration
    (``config`` holds the other :class:`SweepConfig` fields) on the
    critical-range design, through ``Session.evaluate_results``."""
    session = Session.for_design(design)

    def evaluate(program, policy, **config):
        return session.evaluate_results(
            [program], [SweepConfig(policy=policy, **config)]
        )[0][0]

    return evaluate


@pytest.fixture(scope="session")
def characterization(design):
    """Full characterisation of the critical-range design (per-run DTA
    artefacts kept for the histogram tests)."""
    return Session.for_design(design).characterize(keep_runs=True)


@pytest.fixture(scope="session")
def lut(characterization):
    return characterization.lut


@pytest.fixture(scope="session")
def conventional_characterization(conventional_design):
    return Session.for_design(conventional_design).characterize(
        keep_runs=True
    )
