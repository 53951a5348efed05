"""Evaluation flow: benchmark execution with dynamic timings.

The LUT-aware cycle-accurate simulation of the paper (Sec. III-B): run a
program on the pipeline, apply a clock policy per cycle, and accumulate
real time.  The evaluation optionally replays the ground-truth excitation
model to verify the central invariant — the applied period covers every
excited path in every cycle (frequency-over-scaling *without* timing
errors).

The engine is built around the compiled-trace artifact
(:mod:`repro.dta.compiled`): the pipeline is simulated once per
(program, design) and frozen into NumPy matrices, then every
(policy, margin, generator) configuration is evaluated as a handful of
array operations — policy gather, margin multiply, generator quantisation,
and a single array comparison for the safety check.
``evaluate_program_scalar`` keeps the original per-record loop as the
reference semantics (the batch path is bit-identical to it, which
``tests/test_batch_equivalence.py`` enforces).

.. deprecated::
    The free functions ``evaluate_program``, ``evaluate_suite`` and
    ``evaluate_batch`` are legacy shims over :class:`repro.api.Session`
    (bit-identical; ``evaluate_batch`` additionally emits a
    ``DeprecationWarning`` for its ``[config][program]`` return-shape
    footgun).  New code should use ``Session.evaluate`` and the columnar
    ``ResultFrame`` it returns.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.clocking.controller import ClockAdjustmentController
from repro.dta.compiled import get_compiled_trace
from repro.obs.trace import span as obs_span
from repro.sim.pipeline import PipelineSimulator
from repro.sim.trace import Stage
from repro.utils.units import ps_to_mhz

#: Safety-check tolerance: a path must exceed the applied period by more
#: than this to count as a violation (guards float rounding, not physics).
VIOLATION_TOLERANCE_PS = 1e-6

#: Default pipeline-simulation cycle budget.
DEFAULT_MAX_CYCLES = 4_000_000


@dataclass
class TimingViolation:
    """One cycle in which an excited path exceeded the applied period."""

    cycle: int
    stage: Stage
    applied_period_ps: float
    excited_delay_ps: float
    driver_class: str

    @property
    def overshoot_ps(self):
        return self.excited_delay_ps - self.applied_period_ps


@dataclass
class EvaluationResult:
    """Outcome of one (program, policy) evaluation."""

    program_name: str
    policy_name: str
    num_cycles: int
    num_retired: int
    total_time_ps: float
    static_period_ps: float
    min_period_ps: float
    max_period_ps: float
    switch_rate: float
    violations: list = field(default_factory=list)
    genie_total_time_ps: float = None

    @property
    def average_period_ps(self):
        """Average applied period; NaN for an empty (zero-cycle) trace."""
        if self.num_cycles == 0:
            return float("nan")
        return self.total_time_ps / self.num_cycles

    @property
    def effective_frequency_mhz(self):
        """Average effective clock frequency (paper Fig. 8 y-axis)."""
        if self.num_cycles == 0:
            return float("nan")
        return ps_to_mhz(self.average_period_ps)

    @property
    def static_time_ps(self):
        return self.static_period_ps * self.num_cycles

    @property
    def speedup_percent(self):
        """Speedup over conventional clocking at the STA period."""
        if self.total_time_ps == 0:
            return float("nan")
        return (self.static_time_ps / self.total_time_ps - 1.0) * 100.0

    @property
    def is_safe(self):
        return not self.violations

    def summary(self):
        return (
            f"{self.program_name:>14} [{self.policy_name}]: "
            f"{self.num_cycles} cycles, "
            f"T_avg {self.average_period_ps:7.1f} ps, "
            f"f_eff {self.effective_frequency_mhz:6.1f} MHz, "
            f"speedup {self.speedup_percent:+5.1f} %, "
            f"violations {len(self.violations)}"
        )


@dataclass
class SweepConfig:
    """One configuration of a batch evaluation sweep.

    ``policy`` and ``generator`` may be instances or zero-argument
    factories; factories are called once per program so that stateful
    policies keep the fresh-per-program semantics of ``evaluate_suite``.
    """

    policy: object
    generator: object = None
    margin_percent: float = 0.0
    check_safety: bool = True
    label: str = ""

    def make_policy(self):
        return self.policy() if callable(self.policy) else self.policy

    def make_generator(self):
        return self.generator() if callable(self.generator) else self.generator


def evaluate_compiled(compiled, design, policy, generator=None,
                      margin_percent=0.0, check_safety=True):
    """Evaluate one compiled trace under one configuration (array path)."""
    controller = ClockAdjustmentController(
        policy, generator=generator, margin_percent=margin_percent
    )
    periods = controller.periods_for(compiled)

    violations = []
    if check_safety:
        delays = compiled.delays
        spec = compiled.pipeline_spec
        mask = delays > periods[:, None] + VIOLATION_TOLERANCE_PS
        if mask.any():
            for cycle, stage in np.argwhere(mask):
                cycle = int(cycle)
                stage = int(stage)
                violations.append(
                    TimingViolation(
                        cycle=cycle,
                        stage=spec.stage_label(stage),
                        applied_period_ps=float(periods[cycle]),
                        excited_delay_ps=float(delays[cycle, stage]),
                        driver_class=compiled.class_name_at(cycle, stage),
                    )
                )

    stats = controller.stats
    return EvaluationResult(
        program_name=compiled.program_name,
        policy_name=getattr(policy, "name", type(policy).__name__),
        num_cycles=compiled.num_cycles,
        num_retired=compiled.num_retired,
        total_time_ps=stats.total_time_ps,
        static_period_ps=design.static_period_ps,
        min_period_ps=stats.min_period_ps,
        max_period_ps=stats.max_period_ps,
        switch_rate=stats.switch_rate,
        violations=violations,
    )


def _evaluate_batch(programs, design, configs,
                    max_cycles=DEFAULT_MAX_CYCLES):
    """The batch engine: trace once, vectorize everywhere.

    Each program is simulated and compiled at most once (and reused from
    the module-level cache across calls); each
    :class:`SweepConfig` then costs only a few array operations per
    program.  Returns the ``[config][program]`` result grid.

    This is the engine :class:`repro.api.Session` runs on; first-party
    code calls it through the Session, never through the deprecated
    public shims below.
    """
    programs = list(programs)
    configs = list(configs)
    with obs_span("evaluate.batch", programs=len(programs),
                  configs=len(configs)):
        compiled = [
            get_compiled_trace(program, design, max_cycles=max_cycles)
            for program in programs
        ]
        results = []
        for index, config in enumerate(configs):
            row = []
            with obs_span("evaluate.config",
                          label=config.label or f"config-{index}"):
                for trace in compiled:
                    row.append(
                        evaluate_compiled(
                            trace, design, config.make_policy(),
                            generator=config.make_generator(),
                            margin_percent=config.margin_percent,
                            check_safety=config.check_safety,
                        )
                    )
            results.append(row)
    return results


def _session_for(design, max_cycles):
    from repro.api import Session

    return Session.for_design(design, max_cycles=max_cycles)


def evaluate_batch(programs, design, configs,
                   max_cycles=DEFAULT_MAX_CYCLES):
    """Evaluate many programs under many configurations.

    .. deprecated::
        Legacy shim over :class:`repro.api.Session`; the
        ``[config][program]`` list-of-lists return shape is the footgun
        the columnar ``Session.evaluate`` replaces.  Bit-identical to the
        Session path (enforced by ``tests/test_api_parity.py``).

    Returns
    -------
    list of lists of :class:`EvaluationResult`, indexed
    ``[config][program]`` in input order.
    """
    warnings.warn(
        "evaluate_batch is deprecated and its [config][program] nesting "
        "is easy to index wrong; use repro.api.Session.evaluate, which "
        "returns a columnar ResultFrame",
        DeprecationWarning, stacklevel=2,
    )
    return _session_for(design, max_cycles).evaluate_results(
        list(programs), list(configs)
    )


def evaluate_program(program, design, policy, generator=None,
                     margin_percent=0.0, check_safety=True,
                     max_cycles=DEFAULT_MAX_CYCLES):
    """Run one program under one clock policy.

    .. deprecated::
        Legacy shim over :class:`repro.api.Session` (bit-identical); new
        code should use ``Session.evaluate``.

    Parameters
    ----------
    program:
        Assembled program.
    design:
        The :class:`~repro.timing.design.ProcessorDesign` providing the
        static period and the ground-truth excitation for safety checking.
    policy:
        A clock policy (see :mod:`repro.clocking.policies`).
    generator:
        Optional clock-generator model (quantises requested periods).
    margin_percent:
        Extra guard band (ablation A4).
    check_safety:
        Replay the excitation model and record any cycle whose applied
        period is shorter than an excited path delay.
    """
    config = SweepConfig(
        policy=policy, generator=generator,
        margin_percent=margin_percent, check_safety=check_safety,
    )
    return _session_for(design, max_cycles).evaluate_results(
        [program], [config]
    )[0][0]


def evaluate_program_scalar(program, design, policy, generator=None,
                            margin_percent=0.0, check_safety=True,
                            max_cycles=DEFAULT_MAX_CYCLES):
    """Reference implementation: the original per-record scalar loop.

    Kept as the compatibility path and as the semantics the batch engine
    must reproduce bit-identically (see ``tests/test_batch_equivalence``).

    The safety replay is spec-aware (one excitation sample per spec
    column); record-path *policies* assume the default six-slot layout,
    so non-default specs pair this loop with layout-independent policies
    (e.g. static) or use the batch engine.
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


def evaluate_suite(programs, design, policy_factory, generator=None,
                   margin_percent=0.0, check_safety=True):
    """Evaluate a list of programs; ``policy_factory()`` builds a fresh
    policy per program (policies may be stateful via their controller).

    .. deprecated::
        Legacy shim over :class:`repro.api.Session` (bit-identical); new
        code should use ``Session.evaluate``.
    """
    config = SweepConfig(
        policy=policy_factory, generator=generator,
        margin_percent=margin_percent, check_safety=check_safety,
    )
    return _session_for(design, DEFAULT_MAX_CYCLES).evaluate_results(
        list(programs), [config]
    )[0]


def average_speedup_percent(results):
    """Suite-average speedup (arithmetic mean of per-benchmark speedups,
    which is how the paper reports its 38 % average)."""
    if not results:
        raise ValueError("no results")
    return sum(r.speedup_percent for r in results) / len(results)


def average_frequency_mhz(results):
    if not results:
        raise ValueError("no results")
    return sum(r.effective_frequency_mhz for r in results) / len(results)
