"""The per-record reference semantics: the test oracle.

The production engines in ``src/`` evaluate compiled-trace arrays (one
policy gather, one broadcast, one array comparison per configuration) and
characterise through the vectorized DTA replay.  The paper's claim is a
safety claim — the instruction-keyed period must cover every excited path
in every cycle (Sec. III-B) — so the differential tests hold those engines
bit-identical to the straightforward formulation kept here: one pipeline
record at a time, one excitation replay per stage, one materialised event
log per characterisation program.

Nothing in ``src/`` imports this module; it is the only home of these
loops.  Tests import it as ``oracle`` (``tests/`` is on ``sys.path`` under
pytest); scripts outside ``tests/`` load it by file path.

- :func:`evaluate_program` — one program under one clock policy;
- :func:`evaluate_grid` — the ``[config][program]`` grid of
  :func:`evaluate_program` results, the shape of
  ``Session.evaluate_results``;
- :func:`evaluate_with_drift` — drift-aware evaluation (extension E2);
- :func:`evaluate_overscaling` — over-scaling scan (extension E1);
- :func:`characterize` — the event-log characterisation flow;
- :func:`assert_results_identical` — the field-for-field comparator.
"""

from collections.abc import Mapping

from repro.adapt.online import (
    AdaptiveEvaluationResult,
    _check_scheme,
    _finish,
    _monitor_measurement,
)
from repro.approx.errors import approximate_value, error_magnitude_bits
from repro.approx.violations import ApproximateResult, OverscalingReport
from repro.clocking.controller import ClockAdjustmentController
from repro.clocking.policies import InstructionLutPolicy
from repro.dta.analyzer import analyze_event_log
from repro.dta.extraction import (
    DEFAULT_MIN_OCCURRENCES,
    extract_lut,
    merge_luts,
)
from repro.dta.gatesim import GateLevelSimulator
from repro.flow.characterize import CharacterizationResult
from repro.flow.evaluate import (
    DEFAULT_MAX_CYCLES,
    VIOLATION_TOLERANCE_PS,
    EvaluationResult,
    TimingViolation,
)
from repro.sim.pipeline import PipelineSimulator
from repro.sim.trace import Stage
from repro.workloads.suite import characterization_suite


def evaluate_program(program, design, policy, generator=None,
                     margin_percent=0.0, check_safety=True,
                     max_cycles=DEFAULT_MAX_CYCLES):
    """Run one program under one clock policy, record by record.

    The safety replay is spec-aware (one excitation sample per spec
    column); record-path *policies* assume the default six-slot layout,
    so non-default specs pair this loop with layout-independent policies
    (e.g. static).
    """
    spec = design.pipeline_spec
    simulator = PipelineSimulator(program, spec=spec)
    trace = simulator.run(max_cycles=max_cycles)

    controller = ClockAdjustmentController(
        policy, generator=generator, margin_percent=margin_percent
    )
    excitation = design.excitation
    violations = []
    for record in trace.records:
        period = controller.period_for(record)
        if check_safety:
            for column in range(spec.num_stages):
                excited = excitation.column_delay(record, column, spec)
                if excited.delay_ps > period + VIOLATION_TOLERANCE_PS:
                    violations.append(
                        TimingViolation(
                            cycle=record.cycle,
                            stage=spec.stage_label(column),
                            applied_period_ps=period,
                            excited_delay_ps=excited.delay_ps,
                            driver_class=excited.driver_class,
                        )
                    )

    stats = controller.stats
    return EvaluationResult(
        program_name=program.name,
        policy_name=getattr(policy, "name", type(policy).__name__),
        num_cycles=trace.num_cycles,
        num_retired=trace.num_retired,
        total_time_ps=stats.total_time_ps,
        static_period_ps=design.static_period_ps,
        min_period_ps=stats.min_period_ps,
        max_period_ps=stats.max_period_ps,
        switch_rate=stats.switch_rate,
        violations=violations,
    )


def evaluate_grid(programs, design, configs, max_cycles=DEFAULT_MAX_CYCLES):
    """:func:`evaluate_program` over every ``SweepConfig`` × program, as
    the ``[config][program]`` grid ``Session.evaluate_results`` returns
    (fresh policy and generator per program, as the batch engine)."""
    return [
        [
            evaluate_program(
                program, design, config.make_policy(),
                generator=config.make_generator(),
                margin_percent=config.margin_percent,
                check_safety=config.check_safety,
                max_cycles=max_cycles,
            )
            for program in programs
        ]
        for config in configs
    ]


def evaluate_with_drift(program, design, lut, environment, scheme="online",
                        update_interval=150, tracking_margin=0.025,
                        max_cycles=DEFAULT_MAX_CYCLES):
    """Drift-aware evaluation, one pipeline record at a time (default
    pipeline layout)."""
    _check_scheme(scheme)
    simulator = PipelineSimulator(program)
    trace = simulator.run(max_cycles=max_cycles)
    policy = InstructionLutPolicy(lut)
    excitation = design.excitation

    if scheme == "fixed-guard":
        static_scale = environment.max_drift(trace.num_cycles)
    else:
        static_scale = 1.0

    result = AdaptiveEvaluationResult(
        program_name=program.name,
        scheme=scheme,
        num_cycles=trace.num_cycles,
        total_time_ps=0.0,
    )

    periods = []
    online_scale = 1.0 + tracking_margin
    for record in trace.records:
        drift = environment.drift(record.cycle)
        result.max_drift_seen = max(result.max_drift_seen, drift)

        if scheme == "online" and record.cycle % update_interval == 0:
            measured = _monitor_measurement(drift)
            online_scale = measured + tracking_margin
            result.lut_updates += 1

        predicted = policy.period_for(record)
        if scheme == "online":
            period = predicted * online_scale
        else:
            period = predicted * static_scale
        periods.append(period)

        # ground truth: every excited delay is stretched by the drift
        for stage in Stage:
            excited = excitation.group_delay(record, stage)
            if excited.delay_ps * drift > period + VIOLATION_TOLERANCE_PS:
                result.violations += 1
    return _finish(result, periods)


def evaluate_overscaling(program, design, lut, overscale_factor,
                         max_cycles=2_000_000):
    """Over-scaling scan, one pipeline record at a time (default
    pipeline layout)."""
    if not 0.0 < overscale_factor <= 1.0:
        raise ValueError("overscale_factor must be in (0, 1]")

    simulator = PipelineSimulator(program)
    trace = simulator.run(max_cycles=max_cycles)
    policy = InstructionLutPolicy(lut)
    excitation = design.excitation

    report = OverscalingReport(
        program_name=program.name,
        overscale_factor=overscale_factor,
        num_cycles=trace.num_cycles,
        total_time_ps=0.0,
    )
    for record in trace.records:
        period = policy.period_for(record) * overscale_factor
        report.total_time_ps += period
        cycle_violated = False
        for stage in Stage:
            excited = excitation.group_delay(record, stage)
            overshoot = excited.delay_ps - period
            if overshoot <= 1e-9:
                continue
            cycle_violated = True
            report.violations_by_stage[stage.name] = (
                report.violations_by_stage.get(stage.name, 0) + 1
            )
            report.violations_by_class[excited.driver_class] = (
                report.violations_by_class.get(excited.driver_class, 0) + 1
            )
            if stage == Stage.EX and record.ex_operands is not None:
                view = record.view(Stage.EX)
                spec = design.profile.ex_spec(view.timing_class)
                bits = error_magnitude_bits(overshoot, spec.spread_ps)
                a, b = record.ex_operands
                exact = (a * b) & 0xFFFFFFFF   # representative result
                report.approx_results.append(
                    ApproximateResult(
                        cycle=record.cycle,
                        mnemonic=view.mnemonic,
                        exact_value=exact,
                        approx_value=approximate_value(
                            exact, bits, salt=record.cycle
                        ),
                        corrupted_bits=bits,
                    )
                )
        if cycle_violated:
            report.violation_cycles += 1
    return report


def characterize(design, programs=None,
                 min_occurrences=DEFAULT_MIN_OCCURRENCES,
                 sim_period_ps=None):
    """Event-log characterisation: gate-level simulation, per-event DTA,
    per-record extraction, canonical suite-order merge (default pipeline
    layout)."""
    if programs is None:
        programs = characterization_suite()
    programs = list(programs)
    luts = []
    total_cycles = 0
    for program in programs:
        result = GateLevelSimulator(
            program, design, sim_period_ps=sim_period_ps
        ).run()
        dta = analyze_event_log(result.event_log)
        luts.append(extract_lut(
            dta, result.trace, design.static_period_ps,
            min_occurrences=min_occurrences, source=program.name,
        ))
        total_cycles += result.num_cycles
    merged = merge_luts(luts)
    merged.source = f"{len(programs)} programs / {total_cycles} cycles"
    return CharacterizationResult(
        design=design, lut=merged, total_cycles=total_cycles
    )


#: Fields an ``EvaluationResult`` shares with an ``EVALUATION_SCHEMA`` row.
_RESULT_FIELDS = (
    "num_cycles", "num_retired", "total_time_ps", "static_period_ps",
    "min_period_ps", "max_period_ps", "switch_rate", "average_period_ps",
    "effective_frequency_mhz", "speedup_percent",
)


def _comparable(result):
    """An ``EvaluationResult`` or an evaluation row as one plain dict."""
    if isinstance(result, Mapping):
        fields = {name: result[name] for name in _RESULT_FIELDS}
        fields["program"] = result["program"]
        fields["num_violations"] = result["num_violations"]
        fields["violations"] = [tuple(v) for v in result["violations"]]
        return fields
    fields = {name: getattr(result, name) for name in _RESULT_FIELDS}
    fields["program"] = result.program_name
    fields["policy"] = result.policy_name
    fields["num_violations"] = len(result.violations)
    fields["violations"] = [
        (v.cycle, v.stage.name, v.applied_period_ps, v.excited_delay_ps,
         v.driver_class)
        for v in result.violations
    ]
    return fields


def assert_results_identical(expected, actual):
    """Bitwise (``==``, no tolerance) comparison of two evaluation
    outcomes, each an ``EvaluationResult`` or an ``EVALUATION_SCHEMA``
    row; the policy label is compared only between two results (rows
    carry the config-spec policy name)."""
    expected = _comparable(expected)
    actual = _comparable(actual)
    for name in expected.keys() & actual.keys():
        assert expected[name] == actual[name], (
            f"{expected['program']}: {name} differs: "
            f"{expected[name]!r} != {actual[name]!r}"
        )
