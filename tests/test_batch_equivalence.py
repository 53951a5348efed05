"""Oracle-vs-vectorized equivalence of the compiled-trace batch engine.

The batch engine must be a pure acceleration: for every policy and every
workload kernel, ``periods_for(compiled_trace)`` must equal the oracle's
per-record ``period_for(policy, record)`` sequence *exactly* (same table
lookups, same float operations), and the batch :class:`EvaluationResult`
must be bit-identical to the per-record reference in ``tests/oracle.py``
— periods, aggregate stats, and violations.
"""

import copy
import functools
import itertools

import numpy as np
import pytest

from repro.api import Session
from repro.clocking.generator import (
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
from repro.dta.compiled import compile_trace, get_compiled_trace
from repro.flow.evaluate import SweepConfig
from repro.workloads import all_kernels, get_kernel

import oracle

ALL_KERNEL_NAMES = tuple(kernel.name for kernel in all_kernels())

POLICY_NAMES = ("static", "instruction", "ex-only", "two-class", "genie")


def _make_policy(name, design, lut):
    if name == "static":
        return StaticClockPolicy(design.static_period_ps)
    if name == "instruction":
        return InstructionLutPolicy(lut)
    if name == "ex-only":
        return ExOnlyLutPolicy(lut)
    if name == "two-class":
        return TwoClassPolicy(lut)
    if name == "genie":
        return GeniePolicy(design.excitation)
    raise AssertionError(name)


@pytest.fixture(scope="module")
def compiled_traces(design):
    """One compiled trace per kernel, shared by every policy comparison."""
    return {
        name: get_compiled_trace(get_kernel(name).program(), design)
        for name in ALL_KERNEL_NAMES
    }


class TestPeriodEquivalence:
    """periods_for == [oracle.period_for(policy, r) for r in records],
    exactly, for every policy × every workload kernel."""

    @pytest.mark.parametrize("policy_name", POLICY_NAMES)
    def test_policy_matches_scalar_on_every_kernel(
            self, design, lut, compiled_traces, policy_name):
        policy = _make_policy(policy_name, design, lut)
        for kernel_name, compiled in compiled_traces.items():
            vectorized = policy.periods_for(compiled)
            scalar = np.array([
                oracle.period_for(policy, record)
                for record in compiled.trace.records
            ])
            assert vectorized.shape == scalar.shape, kernel_name
            mismatches = np.nonzero(vectorized != scalar)[0]
            assert mismatches.size == 0, (
                f"{policy_name} on {kernel_name}: first mismatch at cycle "
                f"{mismatches[0] if mismatches.size else '-'}"
            )


class TestResultEquivalence:
    """Full EvaluationResult bit-identity of batch vs. the oracle."""

    KERNELS = ("crc32", "matmult", "statemachine", "gcd")

    @pytest.mark.parametrize("name", KERNELS)
    def test_instruction_policy(self, design, evaluate_one, lut, name):
        program = get_kernel(name).program()
        policy = InstructionLutPolicy(lut)
        oracle.assert_results_identical(
            oracle.evaluate_program(program, design, policy),
            evaluate_one(program, policy),
        )

    def test_margin_and_ring_generator(self, design, evaluate_one, lut):
        program = get_kernel("crc32").program()
        policy = InstructionLutPolicy(lut)
        kwargs = dict(
            generator=TunableRingOscillator(), margin_percent=7.5,
        )
        oracle.assert_results_identical(
            oracle.evaluate_program(program, design, policy, **kwargs),
            evaluate_one(program, policy, **kwargs),
        )

    def test_pll_generator(self, design, evaluate_one, lut):
        program = get_kernel("fib").program()
        policy = InstructionLutPolicy(lut)
        kwargs = dict(generator=MultiPLLClockGenerator())
        oracle.assert_results_identical(
            oracle.evaluate_program(program, design, policy, **kwargs),
            evaluate_one(program, policy, **kwargs),
        )

    def test_violations_identical_when_overscaled(self, design, evaluate_one):
        """Violation records — cycles, stages, driver classes — must match
        when the clock is deliberately 20 % too fast."""
        program = get_kernel("matmult").program()
        policy = StaticClockPolicy(design.static_period_ps * 0.80)
        scalar = oracle.evaluate_program(program, design, policy)
        batch = evaluate_one(program, policy)
        assert not scalar.is_safe
        oracle.assert_results_identical(scalar, batch)

    def test_genie_policy(self, design, evaluate_one, lut):
        program = get_kernel("statemachine").program()
        policy = GeniePolicy(design.excitation)
        oracle.assert_results_identical(
            oracle.evaluate_program(program, design, policy),
            evaluate_one(program, policy),
        )


class TestBatchEngine:
    def test_grid_shape_and_order(self, design, lut):
        programs = [get_kernel(n).program() for n in ("fib", "crc16")]
        configs = [
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        check_safety=False, label="lut"),
            SweepConfig(policy=lambda: TwoClassPolicy(lut),
                        check_safety=False, label="two-class"),
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        margin_percent=10.0, check_safety=False,
                        label="lut+margin"),
        ]
        grid = Session.for_design(design).evaluate_results(programs, configs)
        assert len(grid) == len(configs)
        for row in grid:
            assert [r.program_name for r in row] == ["fib", "crc16"]
        # margin strictly slows the same policy down
        assert (grid[2][0].average_period_ps
                == pytest.approx(grid[0][0].average_period_ps * 1.10))

    def test_batch_matches_scalar_sweep(self, design, lut):
        programs = [get_kernel(n).program() for n in ("fib", "memcpy")]
        configs = [
            SweepConfig(policy=lambda: InstructionLutPolicy(lut),
                        check_safety=True),
            SweepConfig(policy=lambda: TwoClassPolicy(lut),
                        generator=TunableRingOscillator,
                        margin_percent=5.0, check_safety=True),
        ]
        batch = Session.for_design(design).evaluate_results(
            programs, configs
        )
        reference = oracle.evaluate_grid(programs, design, configs)
        for batch_row, reference_row in zip(batch, reference):
            for ours, expected in zip(batch_row, reference_row):
                oracle.assert_results_identical(expected, ours)

    def test_policy_without_periods_for_is_rejected(self, design,
                                                   evaluate_one):
        """A policy with only a per-record ``period_for`` is refused
        before any period is granted, naming the missing method."""

        class ScalarOnlyPolicy:
            name = "scalar-only"

            def period_for(self, record):
                return design.static_period_ps

        program = get_kernel("fib").program()
        with pytest.raises(TypeError, match=r"ScalarOnlyPolicy .*periods_for"):
            evaluate_one(program, ScalarOnlyPolicy(), check_safety=False)
        with pytest.raises(TypeError, match="periods_for"):
            Session.for_design(design).evaluate_results(
                [program], [SweepConfig(policy=ScalarOnlyPolicy)]
            )

    def test_generator_without_quantize_up_array_is_rejected(
            self, design, evaluate_one):
        """Likewise a generator with only a per-period ``quantize_up``."""

        class ScalarOnlyGenerator:
            def quantize_up(self, period_ps):
                return period_ps

        program = get_kernel("fib").program()
        policy = StaticClockPolicy(design.static_period_ps)
        with pytest.raises(TypeError,
                           match=r"ScalarOnlyGenerator .*quantize_up_array"):
            evaluate_one(program, policy, generator=ScalarOnlyGenerator(),
                         check_safety=False)
        with pytest.raises(TypeError, match="quantize_up_array"):
            Session.for_design(design).evaluate_results(
                [program], [SweepConfig(policy=policy,
                                        generator=ScalarOnlyGenerator)]
            )


class OddPolicy:
    """Alternates two periods cycle by cycle, counting from each
    program's first cycle: a program gathered from the wrong offset of
    the batch shows in its period sequence."""

    name = "odd"

    def __init__(self, period_ps):
        self.period_ps = period_ps

    def period_for(self, record):
        return self.period_ps + (record.cycle % 2)

    def periods_for(self, compiled_trace):
        return self.period_ps + np.arange(compiled_trace.num_cycles) % 2


class FirstGrantSlowGenerator:
    """Grants the first request of each instance one ring tap slower:
    one instance decides a config over the whole batch, so only the
    first program's first period is slow, and an instance made per
    program would show in every program's first period."""

    def __init__(self):
        self.ring = TunableRingOscillator()
        self.grants = 0

    def quantize_up(self, period_ps):
        granted = oracle.quantize_up(self.ring, period_ps)
        self.grants += 1
        return granted + (self.ring.step_ps if self.grants == 1 else 0.0)

    def quantize_up_array(self, periods_ps):
        granted = self.ring.quantize_up_array(periods_ps)
        if self.grants == 0 and granted.size:
            granted[0] += self.ring.step_ps
        self.grants += granted.size
        return granted


class TestBatchBoundaries:
    """One configuration is decided once over every program of the batch
    laid end to end; nothing may leak across a program boundary."""

    #: The shortest kernel (129 cycles) next to a 3085-cycle one, the
    #: same program twice, and a mid-length program last (the only one
    #: whose excited paths outrun 80 % of the static period).
    PROGRAMS = ("fib", "crc32", "fib", "matmult")

    def _configs(self, design, lut):
        static = design.static_period_ps
        instruction = functools.partial(InstructionLutPolicy, lut)
        # a different constant period per program: every boundary
        # changes the period, no program ever switches inside itself
        per_program = itertools.cycle(
            [static * 0.90, static * 0.95, static * 0.85, static]
        )
        return [
            SweepConfig(policy=instruction, check_safety=True),
            SweepConfig(policy=instruction, generator=TunableRingOscillator,
                        margin_percent=5.0, check_safety=False),
            SweepConfig(policy=instruction,
                        generator=MultiPLLClockGenerator(),
                        check_safety=True),
            SweepConfig(policy=lambda: StaticClockPolicy(next(per_program)),
                        check_safety=True),
            SweepConfig(policy=lambda: OddPolicy(static),
                        generator=FirstGrantSlowGenerator,
                        check_safety=False),
            SweepConfig(policy=lambda: StaticClockPolicy(static * 0.80),
                        check_safety=True),
            SweepConfig(policy=lambda: StaticClockPolicy(static * 0.80),
                        check_safety=False),
            SweepConfig(policy=lambda: GeniePolicy(design.excitation),
                        generator=TunableRingOscillator(),
                        check_safety=True),
            SweepConfig(policy=lambda: OddPolicy(static),
                        check_safety=False),
        ]

    def test_batch_matches_oracle_grid(self, design, lut):
        programs = [get_kernel(name).program() for name in self.PROGRAMS]
        batch = Session.for_design(design).evaluate_results(
            programs, self._configs(design, lut)
        )
        reference = oracle.evaluate_grid(
            programs, design, self._configs(design, lut)
        )
        assert [len(row) for row in batch] == [len(programs)] * len(batch)
        for batch_row, reference_row in zip(batch, reference):
            for ours, expected in zip(batch_row, reference_row):
                oracle.assert_results_identical(expected, ours)
        # the cases are live: per-program periods differ at every
        # boundary yet never switch inside a program; the overscaled
        # static clock violates in some programs next to clean ones, and
        # only where safety is checked
        assert all(result.switch_rate == 0.0 for result in batch[3])
        assert len({result.max_period_ps for result in batch[3]}) == 4
        assert [result.is_safe for result in batch[5]] == [
            True, True, True, False
        ]
        assert all(result.is_safe for result in batch[6])
        # one generator instance per config: only the first program's
        # first grant is the slow one (programs 0 and 2 are both fib)
        step = TunableRingOscillator().step_ps
        assert batch[4][0].max_period_ps == batch[4][2].max_period_ps + step
        # every program alternates from its own first cycle
        assert all(result.switch_rate == 1.0 for result in batch[8])


class TestFactoryContract:
    """``SweepConfig`` factories: a fresh policy per program, built and
    gathered once per (policy source, program) whatever the number of
    configs sharing the source."""

    def test_factory_called_once_per_program(self, design, lut):
        made = []
        gathered = []

        class CountingPolicy(InstructionLutPolicy):
            def periods_for(self, compiled_trace):
                gathered.append((id(self), compiled_trace.program_name))
                return super().periods_for(compiled_trace)

        def factory():
            made.append(CountingPolicy(lut))
            return made[-1]

        other_calls = []

        def other():
            other_calls.append(None)
            return StaticClockPolicy(design.static_period_ps)

        programs = [get_kernel(name).program()
                    for name in ("fib", "crc16", "fib")]
        configs = [
            SweepConfig(policy=factory, generator=generator,
                        margin_percent=margin, check_safety=False)
            for generator in (None, TunableRingOscillator())
            for margin in (0.0, 5.0)
        ] + [SweepConfig(policy=other, check_safety=False)]
        grid = Session.for_design(design).evaluate_results(programs,
                                                           configs)
        assert len(made) == len(programs)
        assert len({id(policy) for policy in made}) == len(programs)
        assert gathered == [(id(policy), program.name)
                            for policy, program in zip(made, programs)]
        assert len(other_calls) == len(programs)
        assert [len(row) for row in grid] == [3] * len(configs)

    @staticmethod
    def _lut_configs(lut):
        return [
            SweepConfig(policy=functools.partial(cls, lut),
                        check_safety=True)
            for cls in (InstructionLutPolicy, ExOnlyLutPolicy,
                        TwoClassPolicy)
        ]

    def _assert_fresh(self, design, lut, programs, grid):
        """``grid`` equals a fresh Session and the oracle over a copy of
        ``lut``: a copy carries no derived table, so it builds its own."""
        fresh = copy.deepcopy(lut)
        expected = Session.for_design(design, lut=fresh).evaluate_results(
            programs, self._lut_configs(fresh)
        )
        reference = oracle.evaluate_grid(programs, design,
                                         self._lut_configs(fresh))
        for row, expected_row, reference_row in zip(grid, expected,
                                                    reference):
            for ours, want, slow in zip(row, expected_row, reference_row):
                oracle.assert_results_identical(want, ours)
                oracle.assert_results_identical(slow, ours)

    def test_luts_never_share_derived_tables(self, design, lut):
        programs = [get_kernel(name).program()
                    for name in ("fib", "crc16")]
        other = copy.deepcopy(lut)
        other.entries = {
            cls: {stage: delay * 1.03 for stage, delay in row.items()}
            for cls, row in lut.entries.items()
        }
        session = Session.for_design(design, lut=lut)
        grids = {}
        for name, table in (("lut", lut), ("other", other),
                            ("lut again", lut)):
            grids[name] = session.evaluate_results(
                programs, self._lut_configs(table)
            )
            self._assert_fresh(design, table, programs, grids[name])
        assert (grids["lut"][1][0].total_time_ps
                != grids["other"][1][0].total_time_ps)

        # replacing a LUT's entries after use drops its derived tables
        before = grids["other"]
        other.entries = {
            cls: {stage: delay * 1.07 for stage, delay in row.items()}
            for cls, row in lut.entries.items()
        }
        after = session.evaluate_results(programs,
                                         self._lut_configs(other))
        self._assert_fresh(design, other, programs, after)
        for row_before, row_after in zip(before, after):
            assert (row_before[0].total_time_ps
                    != row_after[0].total_time_ps)


class TestOverscalingEquivalence:
    """The over-scaling evaluation (approx/violations.py) runs on the
    compiled trace; it must reproduce the per-record oracle
    bit-identically — counts, dict build order, and every synthesised
    approximate result."""

    @pytest.mark.parametrize("factor", (1.0, 0.94, 0.88))
    def test_overscaling_report_bit_identical(self, design, lut, factor):
        program = get_kernel("crc32").program()
        fast = Session.for_design(design, lut=lut).overscaling_reports(
            program, [factor]
        )[0]
        slow = oracle.evaluate_overscaling(program, design, lut, factor)

        assert fast.program_name == slow.program_name
        assert fast.num_cycles == slow.num_cycles
        assert fast.total_time_ps == slow.total_time_ps
        assert fast.violation_cycles == slow.violation_cycles
        assert fast.violations_by_stage == slow.violations_by_stage
        assert fast.violations_by_class == slow.violations_by_class
        # dict build order too: first-violation order is part of the API
        assert (list(fast.violations_by_stage)
                == list(slow.violations_by_stage))
        assert (list(fast.violations_by_class)
                == list(slow.violations_by_class))
        assert len(fast.approx_results) == len(slow.approx_results)
        for ours, reference in zip(fast.approx_results,
                                   slow.approx_results):
            assert ours.cycle == reference.cycle
            assert ours.mnemonic == reference.mnemonic
            assert ours.exact_value == reference.exact_value
            assert ours.approx_value == reference.approx_value
            assert ours.corrupted_bits == reference.corrupted_bits
        assert fast.mean_relative_error == slow.mean_relative_error

    def test_overscaled_run_actually_violates(self, design, lut):
        """Sanity: the equivalence above is not vacuous — the overscaled
        factor really produces violations and corrupted EX results."""
        program = get_kernel("matmult").program()
        report = Session.for_design(design, lut=lut).overscaling_reports(
            program, [0.88]
        )[0]
        assert report.violation_cycles > 0
        assert report.approx_results
        assert report.violation_rate > 0


class TestCompiledTrace:
    def test_class_ids_match_attribution(self, design):
        from repro.sim.trace import Stage

        trace = oracle.PipelineSimulator(get_kernel("fib").program()).run()
        compiled = compile_trace(trace, design.excitation)
        for record in trace.records[:50]:
            classes = oracle.attribute_cycle(record)
            for stage in Stage:
                assert (
                    compiled.class_names[
                        compiled.class_ids[record.cycle, stage]
                    ]
                    == classes[stage]
                )

    def test_delays_match_excitation(self, design):
        from repro.sim.trace import Stage

        trace = oracle.PipelineSimulator(get_kernel("fib").program()).run()
        compiled = compile_trace(trace, design.excitation)
        delays = compiled.delays
        for record in trace.records[:50]:
            for stage in Stage:
                expected = design.excitation.group_delay(
                    record, stage
                ).delay_ps
                assert delays[record.cycle, stage] == expected

    def test_cache_reuses_compiled_trace(self, design):
        program = get_kernel("fib").program()
        first = get_compiled_trace(program, design)
        again = get_compiled_trace(
            get_kernel("fib").program(), design
        )
        assert first is again   # content-keyed, not identity-keyed

    def test_genie_bound_shared_with_analyzer(self, design):
        """The genie reduction is literally the same code for the compiled
        delay matrix and the DTA analyzer (satellite: dedup oracle)."""
        from repro.dta.compiled import worst_per_cycle

        trace = oracle.PipelineSimulator(get_kernel("fib").program()).run()
        compiled = compile_trace(trace, design.excitation)
        cycle_max, limiting = worst_per_cycle(compiled.delays)
        assert cycle_max.shape == (trace.num_cycles,)
        assert (cycle_max == compiled.cycle_max_delays()).all()
        assert limiting.max() < 6


class TestOnlineAdaptEquivalence:
    """Oracle-vs-array equivalence of the drift-aware online adapter.

    The vectorized ``adapt.online`` engine consumes compiled-trace arrays;
    it must reproduce the per-record oracle walk bit-for-bit — the full
    applied-period sequence (including every mid-trace LUT rescale the
    monitor performs), the aggregate time, the violation count and the
    update/drift bookkeeping.
    """

    @pytest.fixture(scope="class")
    def adapt_env(self):
        from repro.adapt.environment import EnvironmentModel

        return EnvironmentModel()

    def _compare(self, program, design, lut, environment, scheme,
                 update_interval=150, tracking_margin=0.025):
        reference = oracle.evaluate_with_drift(
            program, design, lut, environment, scheme=scheme,
            update_interval=update_interval,
            tracking_margin=tracking_margin,
        )
        fast = Session.for_design(design, lut=lut).adapt_results(
            [program], environment, [scheme], update_interval,
            tracking_margin,
        )[0]
        assert fast.num_cycles == reference.num_cycles
        assert fast.total_time_ps == reference.total_time_ps
        assert fast.violations == reference.violations
        assert fast.lut_updates == reference.lut_updates
        assert fast.max_drift_seen == reference.max_drift_seen
        assert fast.periods == reference.periods
        return reference

    @pytest.mark.parametrize("scheme", ["fixed-none", "fixed-guard",
                                        "online"])
    @pytest.mark.parametrize("kernel", ["fib", "crc16"])
    def test_schemes_bit_identical(self, design, lut, adapt_env, scheme,
                                   kernel):
        self._compare(
            get_kernel(kernel).program(), design, lut, adapt_env,
            scheme=scheme,
        )

    def test_mid_trace_policy_switches(self, design, lut, adapt_env):
        """Frequent monitor updates rescale the prediction policy many
        times mid-trace — including intervals that do not divide the
        cycle count — and every rescale point must line up exactly."""
        program = get_kernel("statemachine").program()
        for interval in (1, 7, 150, 997):
            reference = self._compare(
                program, design, lut, adapt_env,
                scheme="online", update_interval=interval,
            )
            assert reference.lut_updates == -(
                -reference.num_cycles // interval
            )

    def test_tracking_margin_and_drift_shapes(self, design, lut):
        from repro.adapt.environment import EnvironmentModel

        quiet = EnvironmentModel(
            temperature_amplitude=0.01, droop_amplitude=0.0,
            aging_total=0.05, horizon_cycles=2_000,
        )
        self._compare(
            get_kernel("fib").program(), design, lut, quiet,
            scheme="online", update_interval=40, tracking_margin=0.004,
        )

    def test_nominal_environment(self, design, lut):
        from repro.adapt.environment import EnvironmentModel

        self._compare(
            get_kernel("fib").program(), design, lut,
            EnvironmentModel.nominal(), scheme="fixed-none",
        )

    def test_drift_array_matches_scalar_walk(self, adapt_env):
        values = adapt_env.drift_array(4_000)
        for cycle in range(0, 4_000, 97):
            assert values[cycle] == adapt_env.drift(cycle)
