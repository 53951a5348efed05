"""Clock generator, policy and controller tests.

The generators and policies are exercised through the array protocol
(``quantize_up_array``, ``periods_for``) that ``src/`` ships, and held
equal to the per-record reference decision in ``tests/oracle.py``.
"""

import ast
import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro
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
from repro.dta.compiled import compile_trace
from repro.workloads import get_kernel

import oracle
from oracle import PipelineSimulator

periods = st.floats(min_value=620.0, max_value=2300.0)


def _grant(generator, period):
    """The array path's grant for one request, held equal to the
    oracle's per-period grant."""
    granted = float(generator.quantize_up_array([period])[0])
    assert granted == oracle.quantize_up(generator, period)
    return granted


class TestGenerators:
    def test_ideal_identity(self):
        assert _grant(IdealClockGenerator(), 1234.5) == 1234.5

    @given(periods)
    def test_ring_oscillator_safety(self, period):
        generator = TunableRingOscillator()
        granted = _grant(generator, period)
        assert granted >= period - 1e-9
        assert granted in generator.available_periods()

    @given(periods)
    def test_ring_oscillator_tightness(self, period):
        granted = _grant(TunableRingOscillator(step_ps=50.0), period)
        assert granted - period < 50.0 + 1e-9

    def test_ring_oscillator_range(self):
        generator = TunableRingOscillator(max_period_ps=2000.0)
        with pytest.raises(ClockGeneratorError):
            generator.quantize_up_array([2100.0])
        with pytest.raises(ClockGeneratorError):
            oracle.quantize_up(generator, 2100.0)
        assert _grant(generator, 100.0) == generator.min_period_ps

    @given(periods)
    def test_pll_safety(self, period):
        generator = MultiPLLClockGenerator()
        try:
            granted = _grant(generator, period)
        except ClockGeneratorError:
            assert period > max(generator.available_periods())
            with pytest.raises(ClockGeneratorError):
                oracle.quantize_up(generator, period)
            return
        assert granted >= period - 1e-9
        assert granted in generator.available_periods()

    def test_pll_default_covers_static(self):
        generator = MultiPLLClockGenerator()
        assert _grant(generator, 2026.0) == pytest.approx(1e6 / 490.0)

    def test_invalid_configs_rejected(self):
        with pytest.raises(ClockGeneratorError):
            TunableRingOscillator(step_ps=0)
        with pytest.raises(ClockGeneratorError):
            MultiPLLClockGenerator([])
        with pytest.raises(ClockGeneratorError):
            IdealClockGenerator().quantize_up_array([-5.0])


def _compiled(design, kernel_name="statemachine"):
    trace = PipelineSimulator(get_kernel(kernel_name).program()).run()
    return compile_trace(trace, design.excitation)


class TestPolicies:
    def test_static_constant(self, design):
        policy = StaticClockPolicy(design.static_period_ps)
        assert (policy.periods_for(_compiled(design))
                == design.static_period_ps).all()

    def test_ordering_genie_lut_static(self, design, lut):
        """Per cycle: genie <= instruction-LUT <= static (for characterised
        classes) — the fundamental ordering of the paper."""
        compiled = _compiled(design)
        g = GeniePolicy(design.excitation).periods_for(compiled)
        i = InstructionLutPolicy(lut).periods_for(compiled)
        s = StaticClockPolicy(design.static_period_ps).periods_for(compiled)
        assert (g <= i + 1e-6).all()
        assert (i <= s + 1e-6).all()

    def test_ex_only_at_least_instruction_floor(self, design, lut):
        compiled = _compiled(design)
        ex_only = ExOnlyLutPolicy(lut).periods_for(compiled)
        instruction = InstructionLutPolicy(lut).periods_for(compiled)
        assert (ex_only
                >= instruction - lut.static_period_ps * 0.01).all()

    def test_ex_only_floor_positive(self, lut):
        assert ExOnlyLutPolicy(lut).floor_ps > 0

    def test_two_class_toggles_two_periods(self, design, lut):
        policy = TwoClassPolicy(lut)
        observed = set(
            policy.periods_for(_compiled(design, "matmult")).tolist()
        )
        assert observed == {policy.fast_period_ps, policy.slow_period_ps}
        assert policy.slow_period_ps > policy.fast_period_ps

    def test_two_class_slow_on_mul(self, design, lut):
        policy = TwoClassPolicy(lut)
        compiled = _compiled(design, "matmult")
        mul = compiled.class_names.index("l.mul(i)")
        on_mul = (compiled.class_ids == mul).any(axis=1)
        assert on_mul.any()
        assert (policy.periods_for(compiled)[on_mul]
                == policy.slow_period_ps).all()

    def test_invalid_static_rejected(self):
        with pytest.raises(ValueError):
            StaticClockPolicy(0)


class TestController:
    def test_margin_scales_period(self, design, lut):
        compiled = _compiled(design)
        base = ClockAdjustmentController(InstructionLutPolicy(lut))
        guarded = ClockAdjustmentController(
            InstructionLutPolicy(lut), margin_percent=10.0
        )
        assert guarded.periods_for(compiled) == pytest.approx(
            base.periods_for(compiled) * 1.10
        )

    def test_quantization_applies(self, design, lut):
        controller = ClockAdjustmentController(
            InstructionLutPolicy(lut),
            generator=TunableRingOscillator(step_ps=100.0),
        )
        periods = controller.periods_for(_compiled(design))
        assert periods % 100.0 == pytest.approx(0.0, abs=1e-6)

    def test_stats_accumulate(self, design, lut):
        controller = ClockAdjustmentController(InstructionLutPolicy(lut))
        compiled = _compiled(design)
        controller.periods_for(compiled)
        stats = controller.stats
        assert stats.cycles == compiled.num_cycles
        assert stats.min_period_ps <= stats.average_period_ps
        assert stats.average_period_ps <= stats.max_period_ps
        assert 0.0 <= stats.switch_rate <= 1.0
        assert stats.switches > 0   # dynamic adjustment actually adjusts

    def test_negative_margin_rejected(self, lut):
        with pytest.raises(ValueError):
            ClockAdjustmentController(
                InstructionLutPolicy(lut), margin_percent=-1
            )

    def test_decisions_match_oracle(self, design, lut):
        """The array decision equals the oracle's per-record one, cycle
        for cycle, under margin and quantisation."""
        trace = PipelineSimulator(get_kernel("statemachine").program()).run()
        policy = InstructionLutPolicy(lut)
        generator = TunableRingOscillator()
        periods = ClockAdjustmentController(
            policy, generator=generator, margin_percent=7.5,
        ).periods_for(compile_trace(trace, design.excitation))
        assert periods.tolist() == [
            oracle.decide(policy, record, generator, 7.5)
            for record in trace.records
        ]


class TestNonFinitePeriods:
    """Fail closed: a NaN or infinite period is rejected, never granted.

    NaN compares false against every bound, so before the explicit check
    a NaN LUT entry produced ``total_time_ps = nan`` with no violations
    and ``is_safe == True`` on the array path.  Every generator (and the
    generator-less controller) must refuse it with ``ClockGeneratorError``
    on the whole-trace path, as the oracle's per-record path does.
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
                oracle.evaluate_program(
                    program, design, InstructionLutPolicy(nan_lut),
                    generator=make_generator(),
                )
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
            oracle.quantize_up(instance, bad)
        with pytest.raises(ClockGeneratorError, match="invalid period"):
            instance.quantize_up_array([1500.0, bad, 1500.0])

    def test_non_finite_margin_is_rejected(self, lut):
        with pytest.raises(ValueError, match="finite"):
            ClockAdjustmentController(InstructionLutPolicy(lut),
                                      margin_percent=float("nan"))


class TestOneDecisionProtocol:
    """The package ships one clock-decision protocol: no module under
    ``src/repro`` defines the per-record policy step, the per-period
    generator step or their helpers, or imports the per-record class
    attribution.  Their reference semantics live in ``tests/oracle.py``."""

    SOURCE_ROOT = pathlib.Path(repro.__file__).parent
    SCALAR_NAMES = {"period_for", "quantize_up", "check_period",
                    "cycle_max", "cycle_delays", "OnlineFeatureExtractor"}

    def test_no_scalar_decision_step(self):
        offenders = []
        for path in sorted(self.SOURCE_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)) \
                        and node.name in self.SCALAR_NAMES:
                    offenders.append(f"{path.name}:{node.lineno}: "
                                     f"defines {node.name}")
                elif isinstance(node, ast.ImportFrom) and any(
                        alias.name == "attribute_cycle"
                        for alias in node.names):
                    offenders.append(f"{path.name}:{node.lineno}: imports "
                                     f"attribute_cycle from {node.module}")
        assert not offenders, offenders
