"""Characterisation-flow and experiment-record tests."""

import pytest

from repro.api import Session
from repro.flow.experiment import Comparison, ExperimentReport
from repro.timing.profiles import BUBBLE_CLASS
from repro.workloads import get_kernel


class TestCharacterizationFlow:
    def test_default_flow_completes(self, characterization):
        assert characterization.num_runs >= 3
        assert characterization.total_cycles > 10_000
        assert characterization.lut.classes()

    def test_characterization_cycle_budget_like_paper(self, characterization):
        """The paper characterises with a 14 k-cycle gate-level run; our
        default suite is of the same order."""
        assert 10_000 <= characterization.total_cycles <= 100_000

    def test_run_lookup(self, characterization):
        run = characterization.run_named("crc32")
        assert run.num_cycles > 0
        with pytest.raises(KeyError):
            characterization.run_named("missing")

    def test_custom_program_set(self, design):
        result = Session.for_design(design).characterize(
            [get_kernel("fib").program()]
        )
        assert result.num_runs == 0           # runs not kept
        assert result.lut.is_characterized("l.add(i)")
        # fib never multiplies: mul must fall back to static
        assert not result.lut.is_characterized("l.mul(i)")

    def test_partial_characterization_is_safe_fallback(self, design,
                                                       evaluate_one):
        from repro.clocking.policies import InstructionLutPolicy
        from repro.sim.trace import Stage

        partial = Session.for_design(design).characterize(
            [get_kernel("fib").program()]
        )
        assert partial.lut.entry("l.mul(i)", Stage.EX) == \
            design.static_period_ps
        # evaluating a mul-heavy program with the partial LUT stays safe
        result = evaluate_one(
            get_kernel("dotprod").program(),
            InstructionLutPolicy(partial.lut),
        )
        assert result.is_safe
        assert BUBBLE_CLASS in partial.lut.characterized


class TestExperimentRecords:
    def test_comparison_deviation(self):
        comparison = Comparison("x", paper=100.0, measured=105.0)
        assert comparison.deviation_percent == pytest.approx(5.0)

    def test_report_rendering(self):
        report = ExperimentReport("Fig. 8", "speedups")
        report.add("average speedup", 38.0, 42.9, unit=" %")
        report.note("measured on the BEEBS-like suite")
        text = report.render()
        assert "Fig. 8" in text
        assert "+12.9%" in text
        assert "note:" in text

    def test_max_abs_deviation(self):
        report = ExperimentReport("T", "t")
        report.add("a", 10.0, 11.0)
        report.add("b", 10.0, 9.5)
        assert report.max_abs_deviation_percent() == pytest.approx(10.0)

    def test_max_abs_deviation_empty_report(self):
        """Empty comparison lists must not crash (satellite fix)."""
        assert ExperimentReport("T", "t").max_abs_deviation_percent() == 0.0

    def test_zero_paper_value_is_zero_safe(self):
        """paper == 0 must not silently propagate NaN (satellite fix)."""
        exact = Comparison("zero-match", paper=0.0, measured=0.0)
        assert exact.deviation_percent == 0.0

        mismatch = Comparison("zero-miss", paper=0.0, measured=3.0)
        assert mismatch.deviation_percent == float("inf")
        assert "n/a" in mismatch.row()[-1]

        report = ExperimentReport("T", "t")
        report.add("zero-match", 0.0, 0.0)
        assert report.max_abs_deviation_percent() == 0.0
        assert "n/a" not in report.render()
