"""Online LUT adaptation (extension E2) tests."""

import pytest

from repro.adapt.environment import EnvironmentModel
from repro.adapt.online import SCHEMES
from repro.api import Session
from repro.workloads import get_kernel


@pytest.fixture(scope="module")
def environment():
    return EnvironmentModel()


@pytest.fixture(scope="module")
def session(design, lut):
    return Session.for_design(design, lut=lut)


def adapt_one(session, program, environment, scheme="online",
                        update_interval=150, tracking_margin=0.025):
    """One drift-aware result through ``Session.adapt_results``."""
    return session.adapt_results(
        [program], environment, [scheme], update_interval, tracking_margin,
    )[0]


class TestEnvironmentModel:
    def test_nominal_is_unity(self):
        nominal = EnvironmentModel.nominal()
        for cycle in (0, 1_000, 100_000):
            assert nominal.drift(cycle) == pytest.approx(1.0)

    def test_drift_bounded_by_max(self, environment):
        bound = environment.max_drift(50_000)
        for cycle in range(0, 50_000, 487):
            assert environment.drift(cycle) <= bound + 1e-9

    def test_aging_monotone_component(self):
        aging_only = EnvironmentModel(
            temperature_amplitude=0.0, droop_amplitude=0.0,
            aging_total=0.05, horizon_cycles=10_000,
        )
        drifts = [aging_only.drift(c) for c in range(0, 10_001, 1000)]
        assert drifts == sorted(drifts)
        assert drifts[-1] == pytest.approx(1.05)

    def test_droop_pulses(self):
        droop_only = EnvironmentModel(
            temperature_amplitude=0.0, droop_amplitude=0.05,
            aging_total=0.0, droop_every_cycles=1000,
            droop_length_cycles=100,
        )
        in_droop = droop_only.drift(50)
        outside = droop_only.drift(500)
        assert in_droop > outside == pytest.approx(1.0)

    def test_deterministic(self, environment):
        assert environment.drift(1234) == environment.drift(1234)


class TestAdaptiveEvaluation:
    @pytest.fixture(scope="class")
    def schemes(self, session, environment):
        # crc32 runs ~5.6 k cycles: a full droop pulse plus most of a
        # thermal period fall inside the run
        results = session.adapt_results(
            [get_kernel("crc32").program()], environment, SCHEMES
        )
        return dict(zip(SCHEMES, results))

    def test_no_guard_band_is_unsafe_under_drift(self, schemes):
        assert schemes["fixed-none"].violations > 0

    def test_fixed_guard_is_safe_but_slow(self, schemes):
        assert schemes["fixed-guard"].is_safe
        assert (
            schemes["fixed-guard"].effective_frequency_mhz
            < schemes["fixed-none"].effective_frequency_mhz
        )

    def test_online_is_safe_and_faster_than_guard(self, schemes):
        online = schemes["online"]
        assert online.is_safe
        assert online.lut_updates > 0
        assert (
            online.effective_frequency_mhz
            > schemes["fixed-guard"].effective_frequency_mhz
        )

    def test_nominal_environment_matches_paper_mode(self, session):
        """With no drift, the online scheme's only cost is its tracking
        margin."""
        result = adapt_one(
            session, get_kernel("fib").program(),
            EnvironmentModel.nominal(), scheme="online",
            tracking_margin=0.0,
        )
        assert result.is_safe
        assert result.max_drift_seen == pytest.approx(1.0)

    def test_unknown_scheme_rejected(self, session, environment):
        with pytest.raises(ValueError):
            adapt_one(
                session, get_kernel("fib").program(), environment,
                scheme="bogus",
            )

    def test_summary_text(self, schemes):
        assert "LUT updates" in schemes["online"].summary()

    def test_faster_updates_track_tighter(self, session, environment):
        program = get_kernel("crc32").program()
        slow = adapt_one(
            session, program, environment, update_interval=2_000,
            tracking_margin=0.04,
        )
        fast = adapt_one(
            session, program, environment, update_interval=100,
            tracking_margin=0.04,
        )
        assert fast.lut_updates > slow.lut_updates
        assert fast.is_safe
