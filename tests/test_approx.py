"""Approximate over-scaling extension tests."""

import pytest

from repro.approx.errors import (
    approximate_value,
    error_magnitude_bits,
    relative_error,
)
from repro.api import Session
from repro.workloads import get_kernel


@pytest.fixture(scope="module")
def session(design, lut):
    return Session.for_design(design, lut=lut)


class TestErrorModel:
    def test_no_overshoot_no_error(self):
        assert error_magnitude_bits(0.0, 300.0) == 0
        assert error_magnitude_bits(-5.0, 300.0) == 0

    def test_error_monotone_in_overshoot(self):
        bits = [
            error_magnitude_bits(overshoot, 300.0)
            for overshoot in (10, 50, 150, 300, 600)
        ]
        assert bits == sorted(bits)
        assert bits[-1] == 32

    def test_zero_spread_full_corruption(self):
        assert error_magnitude_bits(1.0, 0.0) == 32

    def test_approximate_value_identity(self):
        assert approximate_value(0x12345678, 0) == 0x12345678

    def test_approximate_value_preserves_low_bits(self):
        exact = 0x12345678
        approx = approximate_value(exact, 8)
        assert approx & 0x00FFFFFF == exact & 0x00FFFFFF

    def test_approximate_value_deterministic(self):
        assert approximate_value(42, 16, salt=3) == \
            approximate_value(42, 16, salt=3)

    def test_relative_error(self):
        assert relative_error(100, 100) == 0.0
        assert relative_error(100, 150) == pytest.approx(0.5)
        assert relative_error(0, 0) == 0.0
        assert relative_error(0, 1) == 1.0


class TestOverscaling:
    def test_factor_one_is_error_free(self, session):
        report = session.overscaling_reports(
            get_kernel("matmult").program(), [1.0]
        )[0]
        assert report.violation_cycles == 0
        assert not report.approx_results

    def test_overscaling_produces_violations(self, session):
        report = session.overscaling_reports(
            get_kernel("matmult").program(), [0.85]
        )[0]
        assert report.violation_cycles > 0
        assert report.violation_rate > 0

    def test_violation_rate_monotone(self, session):
        program = get_kernel("dotprod").program()
        reports = session.overscaling_reports(
            program, [1.0, 0.95, 0.90, 0.85]
        )
        rates = [report.violation_rate for report in reports]
        assert rates == sorted(rates)
        assert rates[0] == 0.0

    def test_multiplier_among_first_victims(self, session):
        """The mul class has the deepest data-dependent paths; moderate
        over-scaling must hit it (the paper's candidate for approximate
        computing)."""
        report = session.overscaling_reports(
            get_kernel("matmult").program(), [0.90]
        )[0]
        assert any(
            "l.mul" in cls for cls in report.violations_by_class
        ), report.violations_by_class

    def test_time_scales_with_factor(self, session):
        program = get_kernel("dotprod").program()
        full = session.overscaling_reports(program, [1.0])[0]
        fast = session.overscaling_reports(program, [0.90])[0]
        assert fast.total_time_ps == pytest.approx(
            full.total_time_ps * 0.90, rel=1e-9
        )

    def test_invalid_factor_rejected(self, session):
        program = get_kernel("dotprod").program()
        with pytest.raises(ValueError):
            session.overscaling_reports(program, [0.0])
        with pytest.raises(ValueError):
            session.overscaling_reports(program, [1.2])

    def test_summary_text(self, session):
        report = session.overscaling_reports(
            get_kernel("dotprod").program(), [0.9]
        )[0]
        assert "violating cycles" in report.summary()
