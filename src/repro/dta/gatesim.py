"""Gate-level simulation and dynamic timing analysis (paper Sec. II-B.2).

The paper runs the placed-and-routed netlist in Modelsim at a "low" clock
frequency, records an event log of all endpoint data/clock activity and
runs its DTA tool over that log.  Here the vector pipeline engine provides
the per-cycle stage occupancy, the excitation model the worst data-arrival
delay of each stage column, and :func:`recovered_stage_delays` replays the
event-log timestamp arithmetic on the resulting delay matrix: what the DTA
recovers is exactly what it would read off the materialised log.

Each stage group is observed through its (few) representative endpoints:
the worst endpoint of the group carries the excited delay; the others trail
at fixed fractions, and the DTA keeps the per-endpoint maximum.

:class:`DtaResult` holds what the analysis recovers:

- the per-cycle, per-column worst delays ``d_s[t]`` (the per-endpoint
  clock/data comparison makes clock skew cancel, as the paper emphasises);
- the per-cycle overall worst delay (the genie-aided minimum safe period),
  its distribution (Fig. 5) and the time-average lower bound on T_avg;
- which stage group limits each cycle (Fig. 6).
"""

from dataclasses import dataclass, field

import numpy as np

from repro.sim import vector
from repro.sim.trace import Stage
from repro.utils.rounding import round3_array
from repro.utils.stats import Histogram

#: Data-arrival fractions of the non-worst endpoints in each group.
_TRAILING_FRACTIONS = (1.0, 0.86, 0.67)

#: Default gate-sim clock period margin above the STA period.
_SIM_PERIOD_MARGIN = 1.10

#: Safety bound on the pipeline run of one characterisation program.
MAX_CYCLES = 2_000_000


@dataclass
class DtaResult:
    """Per-cycle dynamic timing data recovered by the DTA."""

    sim_period_ps: float
    num_cycles: int
    #: column -> numpy array of per-cycle worst delays (ps).
    stage_delays: dict = field(default_factory=dict)
    #: per-cycle overall worst delay (ps).
    cycle_max: np.ndarray = None
    #: per-cycle limiting stage group (a :class:`Stage` value).
    limiting_stage: np.ndarray = None

    # -- Fig. 5 statistics ----------------------------------------------------

    @property
    def mean_cycle_delay_ps(self):
        """Optimistic lower bound on the average clock period (genie)."""
        return float(self.cycle_max.mean())

    @property
    def max_cycle_delay_ps(self):
        return float(self.cycle_max.max())

    def genie_speedup_percent(self, static_period_ps):
        """Theoretical speedup of perfect per-cycle adjustment (Sec. IV-A)."""
        return (static_period_ps / self.mean_cycle_delay_ps - 1.0) * 100.0

    def delay_histogram(self, num_bins=40, low=0.0, high=None):
        """Histogram of per-cycle worst delays (paper Fig. 5)."""
        if high is None:
            high = float(np.ceil(self.max_cycle_delay_ps / 100.0) * 100.0)
        histogram = Histogram(low=low, high=high, num_bins=num_bins)
        histogram.extend(self.cycle_max.tolist())
        return histogram

    # -- Fig. 6 statistics ----------------------------------------------------

    def limiting_stage_shares(self):
        """Fraction of cycles in which each stage holds the worst endpoint."""
        shares = {}
        for stage in Stage:
            shares[stage] = float(
                (self.limiting_stage == stage.value).sum() / self.num_cycles
            )
        return shares

    def dominant_stage(self):
        shares = self.limiting_stage_shares()
        return max(shares, key=lambda stage: shares[stage])


def _sim_period(design, sim_period_ps=None):
    """Resolved gate-sim clock period: 10 % above the STA period by
    default; a period below STA is rejected (the characterisation must
    itself be timing-safe)."""
    if sim_period_ps is None:
        sim_period_ps = design.static_period_ps * _SIM_PERIOD_MARGIN
    if sim_period_ps < design.static_period_ps:
        raise ValueError(
            "gate-level simulation must run at or below the STA "
            f"frequency: period {sim_period_ps} ps < "
            f"{design.static_period_ps} ps"
        )
    return sim_period_ps


def run_dta(program, design, sim_period_ps=None):
    """Simulate one characterisation program and run the DTA on it.

    The compiled trace supplies both the excited-delay matrix the DTA
    reads and the per-cycle class attribution the extraction needs.

    Returns ``(dta_result, compiled_trace)``.
    """
    from repro.dta.compiled import compile_vector_run, worst_per_cycle

    sim_period_ps = _sim_period(design, sim_period_ps)
    spec = design.pipeline_spec
    run = vector.simulate(program, max_cycles=MAX_CYCLES, spec=spec)
    compiled = compile_vector_run(run, design.excitation)

    recovered = recovered_stage_delays(compiled.delays, design, sim_period_ps)
    cycle_max, limiting = worst_per_cycle(recovered)
    dta = DtaResult(
        sim_period_ps=sim_period_ps,
        num_cycles=compiled.num_cycles,
        stage_delays={
            column: recovered[:, column]
            for column in range(spec.num_stages)
        },
        cycle_max=cycle_max,
        limiting_stage=np.asarray(spec.group_of)[limiting],
    )
    return dta, compiled


def recovered_stage_delays(delays, design, sim_period_ps):
    """Per-cycle stage delays as the DTA recovers them from an event log.

    For every stage group the (few) representative endpoints trail the
    worst excited delay at fixed fractions; each endpoint's data/clock
    timestamps are rounded to the event log's 3-decimal resolution, and
    the analyzer recovers ``period - slack``.  This function replays that
    exact arithmetic on the ``(cycles, stages)`` excited-delay matrix —
    the recovered value differs from the excited delay by the rounding
    noise of the timestamps, which is why extraction runs on *this*
    matrix: the LUT is bit-identical to one extracted from the
    materialised event log.
    """
    spec = design.pipeline_spec
    num_cycles = len(delays)
    num_columns = delays.shape[1] if num_cycles else spec.num_stages
    period = sim_period_ps
    t0 = np.arange(num_cycles, dtype=float) * period
    recovered = np.zeros((num_cycles, num_columns), dtype=float)
    for index in range(num_columns):
        stage = Stage(spec.group_of[index])
        column = np.zeros(num_cycles, dtype=float)
        for endpoint, fraction in zip(
            design.netlist.endpoints_for(stage), _TRAILING_FRACTIONS
        ):
            delay = delays[:, index] * fraction
            t_data = round3_array(
                t0 + delay - endpoint.setup_ps + endpoint.skew_ps
            )
            t_clock = round3_array(t0 + period + endpoint.skew_ps)
            if np.any(t_clock < t_data):
                cycle = int(np.argmax(t_clock < t_data))
                raise ValueError(
                    f"endpoint {endpoint.name!r} cycle {cycle}: "
                    f"clock edge before data event (timing violation in "
                    f"the characterisation run — sim period too fast)"
                )
            column = np.maximum(
                column, period - (t_clock - t_data - endpoint.setup_ps)
            )
        recovered[:, index] = column
    return recovered
