"""Evaluation flow: benchmark execution with dynamic timings.

The LUT-aware cycle-accurate simulation of the paper (Sec. III-B): run a
program on the pipeline, apply a clock policy per cycle, and accumulate
real time.  The evaluation optionally replays the ground-truth excitation
model to verify the central invariant — the applied period covers every
excited path in every cycle (frequency-over-scaling *without* timing
errors).

The engine is built around the compiled-trace artifact
(:mod:`repro.dta.compiled`): the pipeline is simulated once per
(program, design) and frozen into NumPy matrices.  A batch then does
each piece of work at the level it depends on:

- per (policy source, program): the policy is built once and its base
  period vector gathered once (:class:`~repro.clocking.controller.
  PolicyGather`), shared by every configuration naming that source;
- per program: the per-cycle genie bound ``cycle_max_delays``, computed
  once and cached on the trace;
- per (config, program): margin multiply, generator quantisation, the
  period statistics, and a 1-D safety prefilter against that bound —
  only cycles that fail it are expanded into per-stage
  :class:`TimingViolation` records.
:class:`repro.api.Session` is the entry point (``Session.evaluate`` for
the columnar ``ResultFrame``, ``Session.evaluate_results`` for the
``[config][program]`` grid of :class:`EvaluationResult` objects).  The
original per-record loop survives only as the test oracle
(``tests/oracle.py``), which ``tests/test_batch_equivalence.py`` holds
this engine bit-identical to.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.clocking.controller import (
    ClockAdjustmentController,
    PolicyGather,
)
from repro.dta.compiled import get_compiled_trace
from repro.obs.trace import span as obs_span
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
    policies start fresh on every program.  Within one batch, configs
    that hold the *same* ``policy`` object share it: the factory is
    called once per program for all of them, and the policy's period
    vector is gathered once per program and reused under each config's
    margin and generator (:func:`repro.lab.scenario.materialize_configs`
    builds configs that share one factory per policy name).
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


def scan_violations(trace, periods, first_cycle=0):
    """Every (cycle, stage) whose excited delay exceeds the applied
    period, as :class:`TimingViolation` records in row-major order.

    ``trace`` is a compiled trace or a stream window; ``first_cycle``
    offsets the reported cycle numbers (a window's start).  The
    comparison first runs on the 1-D per-cycle bound
    (``cycle_max_delays``, cached per trace): a cycle violates in some
    stage exactly when its worst stage does, so only the failing cycles
    are expanded into the per-stage delay matrix.
    """
    limit = periods + VIOLATION_TOLERANCE_PS
    cycles = np.flatnonzero(trace.cycle_max_delays() > limit)
    if not cycles.size:
        return []
    delays = trace.delays[cycles]
    spec = trace.pipeline_spec
    violations = []
    for row, stage in np.argwhere(delays > limit[cycles, None]).tolist():
        cycle = int(cycles[row])
        violations.append(
            TimingViolation(
                cycle=first_cycle + cycle,
                stage=spec.stage_label(stage),
                applied_period_ps=float(periods[cycle]),
                excited_delay_ps=float(delays[row, stage]),
                driver_class=trace.class_name_at(cycle, stage),
            )
        )
    return violations


def evaluate_compiled(compiled, design, policy, generator=None,
                      margin_percent=0.0, check_safety=True):
    """Evaluate one compiled trace under one configuration (array path).

    ``policy`` may be a :class:`~repro.clocking.controller.PolicyGather`
    shared with other configurations of the same batch, which then
    reuse its gathered period vector.
    """
    controller = ClockAdjustmentController(
        policy, generator=generator, margin_percent=margin_percent
    )
    periods = controller.periods_for(compiled)
    violations = scan_violations(compiled, periods) if check_safety else []

    stats = controller.stats
    policy = controller.policy
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
    """The batch engine: trace once, gather once, vectorize everywhere.

    Each program is simulated and compiled at most once (and reused from
    the module-level cache across calls).  Each policy source is built
    and gathered once per program; each :class:`SweepConfig` then costs
    only its margin, quantisation, statistics and safety prefilter per
    program.  Returns the ``[config][program]`` result grid.

    This is the engine :class:`repro.api.Session` runs on.
    """
    programs = list(programs)
    configs = list(configs)
    with obs_span("evaluate.batch", programs=len(programs),
                  configs=len(configs)):
        compiled = [
            get_compiled_trace(program, design, max_cycles=max_cycles)
            for program in programs
        ]
        # (id(source), position) -> (source, PolicyGather); the entry
        # holds the source, so no other object can take its id while
        # this memo lives
        gathers = {}
        results = []
        for index, config in enumerate(configs):
            row = []
            with obs_span("evaluate.config",
                          label=config.label or f"config-{index}"):
                for position, trace in enumerate(compiled):
                    key = (id(config.policy), position)
                    entry = gathers.get(key)
                    if entry is None:
                        entry = gathers[key] = (
                            config.policy,
                            PolicyGather(config.make_policy()),
                        )
                    row.append(
                        evaluate_compiled(
                            trace, design, entry[1],
                            generator=config.make_generator(),
                            margin_percent=config.margin_percent,
                            check_safety=config.check_safety,
                        )
                    )
            results.append(row)
    return results


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
