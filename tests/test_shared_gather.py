"""Shared policy gathers in batch evaluation.

A batch builds each policy source once per program and gathers its
period vector once, then applies every config's margin and generator on
that shared vector.  These tests hold the shared path to the per-record
oracle and to evaluating each config on its own, including the cases a
memo keyed by bare object ids gets wrong: fresh policy instances whose
ids Python recycles, and one factory shared by configs that differ in
margin and generator.
"""

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
from repro.flow.evaluate import SweepConfig
from repro.lab.scenario import ConfigSpec, materialize_configs
from repro.workloads import get_kernel

import oracle

PROGRAMS = ("fib", "dotprod", "strsearch")
POLICIES = ["instruction", "ex-only", "two-class", "genie", "static"]
GENERATORS = ["ideal", "ring"]
MARGINS = [0.0, 5.0]


def _programs():
    return [get_kernel(name).program() for name in PROGRAMS]


def _grid_specs(check_safety=True):
    return [
        ConfigSpec(policy=policy, generator=generator,
                   margin_percent=margin, check_safety=check_safety)
        for policy in POLICIES
        for generator in GENERATORS
        for margin in MARGINS
    ]


class TestMaterializeConfigs:
    def test_one_factory_per_policy_name(self, design, lut):
        session = Session.for_design(design, lut=lut)
        configs = materialize_configs(_grid_specs(), session.dca)
        sources = {}
        for spec, config in zip(_grid_specs(), configs):
            sources.setdefault(spec.policy, config.policy)
            assert config.policy is sources[spec.policy]
        assert len({id(source) for source in sources.values()}) == len(
            POLICIES
        )

    def test_sweep_configs_pass_through(self, design, lut):
        ready = SweepConfig(policy=InstructionLutPolicy(lut))
        assert materialize_configs([ready], None) == [ready]
        with pytest.raises(TypeError, match="SweepConfig or ConfigSpec"):
            materialize_configs(["instruction"], None)


class TestSharedGatherMatchesOracle:
    @pytest.mark.parametrize("variant", ["critical_range", "conventional"])
    def test_grid_matches_oracle(self, request, lut, variant):
        """Session.evaluate over policies × generators × margins (one
        shared factory per policy) equals the per-record oracle, row by
        row; on the conventional design the critical-range LUT violates,
        and the violation lists must match exactly."""
        prefix = "" if variant == "critical_range" else "conventional_"
        design = request.getfixturevalue(prefix + "design")
        session = Session.for_design(design, lut=lut)
        programs = _programs()
        frame = session.evaluate(programs, policies=POLICIES,
                                 generators=GENERATORS, margins=MARGINS,
                                 check_safety=True)
        configs = session._materialize(_grid_specs())
        reference = oracle.evaluate_grid(programs, design, configs)
        rows = iter(frame.iter_rows())
        for reference_row in reference:
            for expected in reference_row:
                oracle.assert_results_identical(expected, next(rows))

        results = session.evaluate_results(programs, configs)
        violations = 0
        for results_row, reference_row in zip(results, reference):
            for ours, expected in zip(results_row, reference_row):
                oracle.assert_results_identical(expected, ours)
                violations += len(ours.violations)
        assert (violations > 0) == (variant == "conventional")


def _assert_each_config_matches_solo(session, programs, configs):
    """Every config of a shared batch equals that config evaluated in a
    batch of its own."""
    shared = session.evaluate_results(programs, configs)
    for config, row in zip(configs, shared):
        solo = session.evaluate_results(programs, [config])[0]
        for ours, expected in zip(row, solo):
            oracle.assert_results_identical(expected, ours)
            assert ours.policy_name == expected.policy_name


class TestMemoIdentity:

    def test_fresh_instance_factories(self, design, lut):
        """Many configs whose factories return fresh policy instances:
        freed instances recycle their ids, which must never alias one
        config's gathered periods onto another's."""
        makers = [
            lambda: InstructionLutPolicy(lut),
            lambda: StaticClockPolicy(design.static_period_ps),
            lambda: ExOnlyLutPolicy(lut),
            lambda: GeniePolicy(design.excitation),
            lambda: TwoClassPolicy(lut),
        ]
        configs = [
            SweepConfig(policy=(lambda make=make: make()),
                        margin_percent=float(index % 3),
                        check_safety=True)
            for index in range(24)
            for make in [makers[index % len(makers)]]
        ]
        session = Session.for_design(design, lut=lut)
        _assert_each_config_matches_solo(session, _programs(), configs)

    def test_one_factory_many_margins_and_generators(self, design, lut):
        factory = (lambda: InstructionLutPolicy(lut))
        configs = [
            SweepConfig(policy=factory, margin_percent=0.0,
                        check_safety=True),
            SweepConfig(policy=factory, generator=TunableRingOscillator,
                        margin_percent=7.5, check_safety=True),
            # the slowest PLL is just above the static period: no margin
            SweepConfig(policy=factory, generator=MultiPLLClockGenerator(),
                        check_safety=False),
        ]
        session = Session.for_design(design, lut=lut)
        _assert_each_config_matches_solo(session, _programs(), configs)

    def test_factory_called_once_per_program(self, design, lut):
        calls = []

        def factory():
            calls.append(1)
            return InstructionLutPolicy(lut)

        configs = [SweepConfig(policy=factory, margin_percent=margin)
                   for margin in MARGINS]
        session = Session.for_design(design, lut=lut)
        session.evaluate_results(_programs(), configs)
        assert len(calls) == len(PROGRAMS)
