"""Shared fixtures and report plumbing for the bench harnesses.

Every bench regenerates one table or figure of the paper and prints the
paper value next to the measured one.  Rendered reports are also written to
``benchmarks/reports/`` so the artefacts survive the run.

The bench session runs against the persistent artifact store
(``$REPRO_STORE``, default ``<repo>/.repro-store``): compiled traces and
the evaluation LUT are pulled from it, so a warm store re-runs the whole
bench suite without a single pipeline simulation or characterisation of
the evaluation design.  Benches that need per-run DTA artefacts (the
histogram figures) still use the full ``characterization`` fixture.
"""

import os
import pathlib

import pytest

from repro.dta.compiled import set_trace_store
from repro.lab.store import ArtifactStore
from repro.timing.design import build_design
from repro.timing.profiles import DesignVariant

REPORT_DIR = pathlib.Path(__file__).parent / "reports"

STORE_DIR = pathlib.Path(
    os.environ.get(
        "REPRO_STORE", pathlib.Path(__file__).parent.parent / ".repro-store"
    )
)


@pytest.fixture(scope="session")
def store():
    """Session-wide artifact store shared by every bench."""
    return ArtifactStore(STORE_DIR)


@pytest.fixture(autouse=True)
def _attach_store(store):
    """Attach the store to the compiled-trace cache for each bench (and
    only for benches — the tier-1 tests in ``tests/`` share the process
    and must stay hermetic), so every batch evaluation here reads and
    writes through it."""
    previous = set_trace_store(store)
    yield
    set_trace_store(previous)


@pytest.fixture(scope="session")
def design():
    return build_design(DesignVariant.CRITICAL_RANGE)


@pytest.fixture(scope="session")
def conventional_design():
    return build_design(DesignVariant.CONVENTIONAL)


@pytest.fixture(scope="session")
def characterization(design):
    from repro.api import Session

    return Session.for_design(design).characterize(keep_runs=True)


@pytest.fixture(scope="session")
def lut(design, store):
    """Evaluation LUT, pulled from the store (characterised on a cold
    store, loaded on a warm one)."""
    return store.get_lut(design)


@pytest.fixture(scope="session")
def session(design, lut, store):
    """Session-wide :class:`repro.api.Session` facade every bench
    evaluates through (design + LUT shared, traces via the store)."""
    from repro.api import Session

    return Session.for_design(design, lut=lut, store=store)


@pytest.fixture(scope="session")
def conventional_characterization(conventional_design):
    from repro.api import Session

    return Session.for_design(conventional_design).characterize(
        keep_runs=True
    )


@pytest.fixture(scope="session")
def suite_results(session, lut):
    """Instruction-LUT evaluation of the full benchmark suite (Fig. 8)
    through the Session facade; traces come from the session's store
    when it is warm (the Session attaches it itself, so session-scoped
    fixtures need no ``_attach_store``)."""
    from repro.clocking.policies import InstructionLutPolicy
    from repro.flow.evaluate import SweepConfig
    from repro.workloads.suite import benchmark_suite

    configs = [SweepConfig(
        policy=lambda: InstructionLutPolicy(lut),
        check_safety=False, label="instruction-lut",
    )]
    return session.evaluate_results(benchmark_suite(), configs)[0]


def publish(name, text):
    """Print a report and persist it under benchmarks/reports/."""
    print()
    print(text)
    REPORT_DIR.mkdir(exist_ok=True)
    (REPORT_DIR / f"{name}.txt").write_text(text + "\n")
