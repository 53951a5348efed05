"""Evaluation-flow tests, including the central safety invariant."""

import pytest

from repro.clocking.generator import TunableRingOscillator
from repro.clocking.policies import (
    ExOnlyLutPolicy,
    GeniePolicy,
    InstructionLutPolicy,
    StaticClockPolicy,
    TwoClassPolicy,
)
from repro.api import Session
from repro.flow.evaluate import (
    SweepConfig,
    average_frequency_mhz,
    average_speedup_percent,
)
from repro.flow.reporting import render_policy_comparison, render_suite_results
from repro.workloads import get_kernel

EVAL_KERNELS = ("crc32", "matmult", "statemachine", "memcpy")


class TestSafetyInvariant:
    """Frequency-over-scaling WITHOUT timing errors (the paper's core
    claim): the predictive LUT period covers every excited path."""

    @pytest.mark.parametrize("name", EVAL_KERNELS)
    def test_instruction_policy_is_safe(self, evaluate_one, lut, name):
        result = evaluate_one(
            get_kernel(name).program(), InstructionLutPolicy(lut)
        )
        assert result.is_safe, result.violations[:3]

    @pytest.mark.parametrize("name", EVAL_KERNELS)
    def test_ex_only_policy_is_safe(self, evaluate_one, lut, name):
        result = evaluate_one(
            get_kernel(name).program(), ExOnlyLutPolicy(lut)
        )
        assert result.is_safe

    def test_two_class_policy_is_safe(self, evaluate_one, lut):
        result = evaluate_one(
            get_kernel("matmult").program(), TwoClassPolicy(lut)
        )
        assert result.is_safe

    def test_static_policy_is_safe(self, design, evaluate_one):
        result = evaluate_one(
            get_kernel("crc32").program(),
            StaticClockPolicy(design.static_period_ps),
        )
        assert result.is_safe
        assert result.speedup_percent == pytest.approx(0.0, abs=1e-9)

    def test_quantized_generator_is_safe(self, evaluate_one, lut):
        result = evaluate_one(
            get_kernel("crc32").program(),
            InstructionLutPolicy(lut),
            generator=TunableRingOscillator(),
        )
        assert result.is_safe

    def test_overscaled_static_is_unsafe(self, design, evaluate_one):
        """Sanity check of the checker itself: clocking the static design
        20 % too fast must produce violations."""
        result = evaluate_one(
            get_kernel("matmult").program(),
            StaticClockPolicy(design.static_period_ps * 0.80),
        )
        assert not result.is_safe
        worst = max(v.overshoot_ps for v in result.violations)
        assert worst > 0


class TestPerformanceOrdering:
    def test_policy_ordering(self, design, evaluate_one, lut):
        """genie >= instruction >= ex-only >= two-class >= static, in
        effective frequency."""
        program = get_kernel("statemachine").program()
        freq = {}
        for name, policy in [
            ("genie", GeniePolicy(design.excitation)),
            ("instruction", InstructionLutPolicy(lut)),
            ("ex-only", ExOnlyLutPolicy(lut)),
            ("two-class", TwoClassPolicy(lut)),
            ("static", StaticClockPolicy(design.static_period_ps)),
        ]:
            freq[name] = evaluate_one(
                program, policy, check_safety=False
            ).effective_frequency_mhz
        assert freq["genie"] >= freq["instruction"] >= freq["ex-only"]
        assert freq["ex-only"] >= freq["two-class"] >= freq["static"]

    def test_quantization_costs_speed(self, evaluate_one, lut):
        program = get_kernel("crc32").program()
        ideal = evaluate_one(
            program, InstructionLutPolicy(lut), check_safety=False
        )
        quantized = evaluate_one(
            program, InstructionLutPolicy(lut),
            generator=TunableRingOscillator(step_ps=100.0),
            check_safety=False,
        )
        assert (
            quantized.effective_frequency_mhz
            <= ideal.effective_frequency_mhz
        )

    def test_margin_costs_speed(self, evaluate_one, lut):
        program = get_kernel("crc32").program()
        base = evaluate_one(
            program, InstructionLutPolicy(lut), check_safety=False
        )
        guarded = evaluate_one(
            program, InstructionLutPolicy(lut),
            margin_percent=10.0, check_safety=False,
        )
        assert guarded.average_period_ps == pytest.approx(
            base.average_period_ps * 1.10, rel=1e-6
        )


class TestResultAccounting:
    def test_time_is_sum_of_periods(self, evaluate_one, lut):
        result = evaluate_one(
            get_kernel("fib").program(), InstructionLutPolicy(lut),
            check_safety=False,
        )
        assert result.total_time_ps == pytest.approx(
            result.average_period_ps * result.num_cycles
        )
        assert result.min_period_ps <= result.average_period_ps
        assert result.average_period_ps <= result.max_period_ps

    def test_speedup_definition(self, design, evaluate_one, lut):
        result = evaluate_one(
            get_kernel("fib").program(), InstructionLutPolicy(lut),
            check_safety=False,
        )
        expected = (
            design.static_period_ps / result.average_period_ps - 1.0
        ) * 100.0
        assert result.speedup_percent == pytest.approx(expected)

    def test_summary_text(self, evaluate_one, lut):
        result = evaluate_one(
            get_kernel("fib").program(), InstructionLutPolicy(lut),
            check_safety=False,
        )
        assert "fib" in result.summary()

    def test_suite_helpers(self, design, lut):
        programs = [get_kernel(n).program() for n in ("fib", "crc16")]
        config = SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                             check_safety=False)
        results = Session.for_design(design).evaluate_results(
            programs, [config]
        )[0]
        assert len(results) == 2
        assert average_speedup_percent(results) > 0
        assert average_frequency_mhz(results) > 494.0
        with pytest.raises(ValueError):
            average_speedup_percent([])

    def test_zero_cycle_result_is_nan_not_crash(self, design):
        """A zero-cycle trace must not divide by zero or report an inf
        minimum period (satellite fix)."""
        import math

        from repro.flow.evaluate import EvaluationResult

        result = EvaluationResult(
            program_name="empty", policy_name="static",
            num_cycles=0, num_retired=0, total_time_ps=0.0,
            static_period_ps=design.static_period_ps,
            min_period_ps=float("nan"), max_period_ps=float("nan"),
            switch_rate=0.0,
        )
        assert math.isnan(result.average_period_ps)
        assert math.isnan(result.effective_frequency_mhz)
        assert math.isnan(result.speedup_percent)
        assert result.is_safe

    def test_zero_cycle_controller_stats(self):
        import math

        from repro.clocking.controller import ControllerStats

        stats = ControllerStats.from_periods([])
        assert stats.cycles == 0
        assert stats.is_empty
        assert math.isnan(stats.min_period_ps)   # not +inf
        assert math.isnan(stats.max_period_ps)
        assert stats.switch_rate == 0.0
        with pytest.raises(ValueError):
            stats.average_period_ps

    def test_controller_stats_from_periods(self):
        from repro.clocking.controller import ControllerStats

        stats = ControllerStats.from_periods([100.0, 100.0, 150.0, 120.0])
        assert stats.cycles == 4
        assert stats.total_time_ps == pytest.approx(470.0)
        assert stats.switches == 2
        assert stats.min_period_ps == 100.0
        assert stats.max_period_ps == 150.0
        assert stats.switch_rate == pytest.approx(2 / 3)

    def test_reporting_renders(self, design, lut):
        programs = [get_kernel(n).program() for n in ("fib", "crc16")]
        config = SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                             check_safety=False)
        results = Session.for_design(design).evaluate_results(
            programs, [config]
        )[0]
        table = render_suite_results(results, design.static_period_ps)
        assert "fib" in table and "Speedup" in table
        comparison = render_policy_comparison({"lut": results})
        assert "crc16" in comparison


class _ConstantPolicy:
    """Requests one fixed period every cycle (no range check, so NaN and
    negative periods reach the engine)."""

    name = "constant"

    def __init__(self, period_ps):
        self.period_ps = period_ps

    def period_for(self, record):
        return self.period_ps

    def periods_for(self, compiled_trace):
        import numpy as np

        return np.full(compiled_trace.num_cycles, self.period_ps)


def _one_per_program(*periods):
    """A policy factory handing out one constant policy per call, in
    program order."""
    policies = iter([_ConstantPolicy(period) for period in periods])
    return lambda: next(policies)


class TestBatchErrorSemantics:
    """A batch that cannot be evaluated raises the error of its first
    failing (config, program) in config-major order, naming that
    program's own worst period."""

    PROGRAMS = ("fib", "crc16", "gcd")

    def _run(self, design, lut, configs):
        programs = [get_kernel(name).program() for name in self.PROGRAMS]
        return Session.for_design(design, lut=lut).evaluate_results(
            programs, configs
        )

    def test_pll_overflow_names_first_failing_config(self, design, lut):
        from repro.clocking.generator import ClockGeneratorError

        session = Session.for_design(design, lut=lut)
        with pytest.raises(ClockGeneratorError) as caught:
            session.evaluate(["crc32"], policies=["instruction", "static"],
                             margins=[0, 10], generators=["pll"])
        assert str(caught.value) == (
            "period 2228.6 ps exceeds the slowest PLL (2040.8 ps)"
        )

    def test_pll_overflow_names_the_program_worst(self, design, lut):
        from repro.clocking.generator import (
            ClockGeneratorError,
            MultiPLLClockGenerator,
        )

        configs = [
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        generator=MultiPLLClockGenerator()),
            SweepConfig(policy=_one_per_program(1500.0, 2100.0, 2300.0),
                        generator=MultiPLLClockGenerator()),
        ]
        with pytest.raises(ClockGeneratorError) as caught:
            self._run(design, lut, configs)
        assert str(caught.value) == (
            "period 2100.0 ps exceeds the slowest PLL (2040.8 ps)"
        )

    def test_ring_overflow_names_the_program_worst(self, design, lut):
        from repro.clocking.generator import ClockGeneratorError

        configs = [SweepConfig(policy=_one_per_program(2450.0, 2500.0,
                                                       1000.0),
                               generator=TunableRingOscillator)]
        with pytest.raises(ClockGeneratorError) as caught:
            self._run(design, lut, configs)
        assert str(caught.value) == (
            "period 2450.0 ps exceeds the oscillator range (max 2400.0 ps)"
        )

    @pytest.mark.parametrize("margin, message", [
        (-1.0, "margin cannot be negative"),
        (float("nan"), "margin must be finite, got nan"),
    ])
    def test_bad_margin(self, design, lut, margin, message):
        session = Session.for_design(design, lut=lut)
        with pytest.raises(ValueError) as caught:
            session.evaluate(["crc32"], policies=["instruction"],
                             margins=[0.0, margin])
        assert str(caught.value) == message

    def test_invalid_base_names_first_bad_program(self, design, lut):
        from repro.clocking.generator import ClockGeneratorError

        configs = [SweepConfig(
            policy=_one_per_program(1500.0, float("nan"), -5.0),
        )]
        with pytest.raises(ClockGeneratorError) as caught:
            self._run(design, lut, configs)
        assert str(caught.value) == "invalid period nan"

    def test_quantisation_error_before_a_later_invalid_base(self, design,
                                                            lut):
        """The first program's grant fails before the second program's
        base is ever checked."""
        from repro.clocking.generator import (
            ClockGeneratorError,
            MultiPLLClockGenerator,
        )

        configs = [SweepConfig(
            policy=_one_per_program(2100.0, float("nan"), 1500.0),
            generator=MultiPLLClockGenerator(),
        )]
        with pytest.raises(ClockGeneratorError) as caught:
            self._run(design, lut, configs)
        assert str(caught.value) == (
            "period 2100.0 ps exceeds the slowest PLL (2040.8 ps)"
        )
