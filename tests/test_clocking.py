"""Clock generator, policy and controller tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.clocking.controller import ClockAdjustmentController
from repro.clocking.generator import (
    ClockGeneratorError,
    IdealClockGenerator,
    MultiPLLClockGenerator,
    TunableRingOscillator,
)
from repro.clocking.policies import (
    ExOnlyLutPolicy,
    GeniePolicy,
    InstructionLutPolicy,
    StaticClockPolicy,
    TwoClassPolicy,
)
from repro.workloads import get_kernel

from oracle import PipelineSimulator

periods = st.floats(min_value=620.0, max_value=2300.0)


class TestGenerators:
    def test_ideal_identity(self):
        assert IdealClockGenerator().quantize_up(1234.5) == 1234.5

    @given(periods)
    def test_ring_oscillator_safety(self, period):
        generator = TunableRingOscillator()
        granted = generator.quantize_up(period)
        assert granted >= period - 1e-9
        assert granted in generator.available_periods()

    @given(periods)
    def test_ring_oscillator_tightness(self, period):
        granted = TunableRingOscillator(step_ps=50.0).quantize_up(period)
        assert granted - period < 50.0 + 1e-9

    def test_ring_oscillator_range(self):
        generator = TunableRingOscillator(max_period_ps=2000.0)
        with pytest.raises(ClockGeneratorError):
            generator.quantize_up(2100.0)
        assert generator.quantize_up(100.0) == generator.min_period_ps

    @given(periods)
    def test_pll_safety(self, period):
        generator = MultiPLLClockGenerator()
        try:
            granted = generator.quantize_up(period)
        except ClockGeneratorError:
            assert period > max(generator.available_periods())
            return
        assert granted >= period - 1e-9
        assert granted in generator.available_periods()

    def test_pll_default_covers_static(self):
        generator = MultiPLLClockGenerator()
        assert generator.quantize_up(2026.0) == pytest.approx(1e6 / 490.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ClockGeneratorError):
            TunableRingOscillator(step_ps=0)
        with pytest.raises(ClockGeneratorError):
            MultiPLLClockGenerator([])
        with pytest.raises(ClockGeneratorError):
            IdealClockGenerator().quantize_up(-5.0)


def _trace_records(kernel_name="statemachine"):
    pipe = PipelineSimulator(get_kernel(kernel_name).program())
    pipe.run()
    return pipe.trace.records


class TestPolicies:
    def test_static_constant(self, design):
        policy = StaticClockPolicy(design.static_period_ps)
        for record in _trace_records()[:20]:
            assert policy.period_for(record) == design.static_period_ps

    def test_ordering_genie_lut_static(self, design, lut):
        """Per cycle: genie <= instruction-LUT <= static (for characterised
        classes) — the fundamental ordering of the paper."""
        genie = GeniePolicy(design.excitation)
        instruction = InstructionLutPolicy(lut)
        static = StaticClockPolicy(design.static_period_ps)
        for record in _trace_records():
            g = genie.period_for(record)
            i = instruction.period_for(record)
            s = static.period_for(record)
            assert g <= i + 1e-6
            assert i <= s + 1e-6

    def test_ex_only_at_least_instruction_floor(self, lut):
        ex_only = ExOnlyLutPolicy(lut)
        instruction = InstructionLutPolicy(lut)
        for record in _trace_records():
            assert (
                ex_only.period_for(record)
                >= instruction.period_for(record) - lut.static_period_ps * 0.01
            )

    def test_ex_only_floor_positive(self, lut):
        assert ExOnlyLutPolicy(lut).floor_ps > 0

    def test_two_class_toggles_two_periods(self, lut):
        policy = TwoClassPolicy(lut)
        observed = {
            policy.period_for(record) for record in _trace_records("matmult")
        }
        assert observed == {policy.fast_period_ps, policy.slow_period_ps}
        assert policy.slow_period_ps > policy.fast_period_ps

    def test_two_class_slow_on_mul(self, lut):
        from repro.dta.extraction import attribute_cycle

        policy = TwoClassPolicy(lut)
        for record in _trace_records("matmult"):
            classes = set(attribute_cycle(record).values())
            if "l.mul(i)" in classes:
                assert policy.period_for(record) == policy.slow_period_ps

    def test_invalid_static_rejected(self):
        with pytest.raises(ValueError):
            StaticClockPolicy(0)


class TestController:
    def test_margin_scales_period(self, lut):
        base = ClockAdjustmentController(InstructionLutPolicy(lut))
        guarded = ClockAdjustmentController(
            InstructionLutPolicy(lut), margin_percent=10.0
        )
        record = _trace_records()[10]
        assert guarded.period_for(record) == pytest.approx(
            base.period_for(record) * 1.10
        )

    def test_quantization_applies(self, lut):
        controller = ClockAdjustmentController(
            InstructionLutPolicy(lut),
            generator=TunableRingOscillator(step_ps=100.0),
        )
        period = controller.period_for(_trace_records()[5])
        assert period % 100.0 == pytest.approx(0.0, abs=1e-6)

    def test_stats_accumulate(self, lut):
        controller = ClockAdjustmentController(InstructionLutPolicy(lut))
        records = _trace_records()
        for record in records:
            controller.period_for(record)
        stats = controller.stats
        assert stats.cycles == len(records)
        assert stats.min_period_ps <= stats.average_period_ps
        assert stats.average_period_ps <= stats.max_period_ps
        assert 0.0 <= stats.switch_rate <= 1.0
        assert stats.switches > 0   # dynamic adjustment actually adjusts

    def test_negative_margin_rejected(self, lut):
        with pytest.raises(ValueError):
            ClockAdjustmentController(
                InstructionLutPolicy(lut), margin_percent=-1
            )

    def test_reset(self, lut):
        controller = ClockAdjustmentController(InstructionLutPolicy(lut))
        controller.period_for(_trace_records()[0])
        controller.reset()
        assert controller.stats.cycles == 0


class TestNonFinitePeriods:
    """Fail closed: a NaN or infinite period is rejected, never granted.

    NaN compares false against every bound, so before the explicit check
    a NaN LUT entry produced ``total_time_ps = nan`` with no violations
    and ``is_safe == True`` on the array path.  Every generator (and the
    generator-less controller) must refuse it with ``ClockGeneratorError``
    on both the per-record and the whole-trace path.
    """

    GENERATORS = {
        "none": lambda: None,
        "ideal": IdealClockGenerator,
        "ring": TunableRingOscillator,
        "pll": MultiPLLClockGenerator,
    }

    @pytest.fixture(scope="class")
    def nan_lut(self, lut):
        import copy

        from repro.sim.trace import Stage

        broken = copy.deepcopy(lut)
        assert broken.is_characterized("l.add(i)")
        broken.entries["l.add(i)"] = {stage: float("nan") for stage in Stage}
        return broken

    @pytest.mark.parametrize("path", ["scalar", "array"])
    @pytest.mark.parametrize("generator", sorted(GENERATORS))
    def test_nan_lut_entry_is_rejected(self, design, nan_lut, generator,
                                       path):
        from repro.api import Session
        from repro.flow.evaluate import SweepConfig

        program = get_kernel("crc32").program()
        make_generator = self.GENERATORS[generator]
        with pytest.raises(ClockGeneratorError, match="invalid period"):
            if path == "scalar":
                controller = ClockAdjustmentController(
                    InstructionLutPolicy(nan_lut),
                    generator=make_generator(),
                )
                for record in PipelineSimulator(program).run().records:
                    controller.period_for(record)
            else:
                Session.for_design(design, lut=nan_lut).evaluate_results(
                    [program],
                    [SweepConfig(policy=InstructionLutPolicy(nan_lut),
                                 generator=make_generator(),
                                 check_safety=True)],
                )

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf"), 0.0, -5.0])
    @pytest.mark.parametrize("generator", ["ideal", "ring", "pll"])
    def test_generators_reject_invalid_requests(self, generator, bad):
        instance = self.GENERATORS[generator]()
        with pytest.raises(ClockGeneratorError, match="invalid period"):
            instance.quantize_up(bad)
        with pytest.raises(ClockGeneratorError, match="invalid period"):
            instance.quantize_up_array([1500.0, bad, 1500.0])

    def test_non_finite_margin_is_rejected(self, lut):
        with pytest.raises(ValueError, match="finite"):
            ClockAdjustmentController(InstructionLutPolicy(lut),
                                      margin_percent=float("nan"))
