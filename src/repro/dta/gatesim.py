"""Gate-level simulation substitute: pipeline run + excitation sampling.

The paper runs the placed-and-routed netlist in Modelsim at a "low" clock
frequency and records an event log of all endpoint data/clock activity.
Here the cycle-accurate pipeline provides the per-cycle stage occupancy,
and the excitation model provides the worst data-arrival delay of each
endpoint group; the result is serialised into exactly the event-log shape
the analyzer consumes.

Each stage group materialises events on its (few) representative endpoints:
the worst endpoint of the group carries the excited delay; the others trail
at fixed fractions, exercising the analyzer's per-endpoint max reduction.
"""

from dataclasses import dataclass

import numpy as np

from repro.dta.events import EndpointEvent, EventLog
from repro.sim import vector
from repro.sim.trace import Stage
from repro.utils.rounding import round3_array

#: Data-arrival fractions of the non-worst endpoints in each group.
_TRAILING_FRACTIONS = (1.0, 0.86, 0.67)

#: Default gate-sim clock period margin above the STA period.
_SIM_PERIOD_MARGIN = 1.10


@dataclass
class GateSimResult:
    """Output bundle of one characterisation run."""

    program_name: str
    event_log: EventLog
    trace: object                    # PipelineTrace
    design: object                   # ProcessorDesign
    num_cycles: int

    @property
    def pc_trace(self):
        """Program-counter trace of retired instructions (paper's .das input)."""
        return [pc for pc, _ in self.trace.retired]


class GateLevelSimulator:
    """Runs a program against a design and produces the event log.

    Parameters
    ----------
    program:
        Assembled program.
    design:
        :class:`~repro.timing.design.ProcessorDesign`.
    sim_period_ps:
        Gate-sim clock period; defaults to 10 % above the STA period (the
        characterisation must itself be timing-safe).
    max_cycles:
        Safety bound for the pipeline run.
    """

    def __init__(self, program, design, sim_period_ps=None,
                 max_cycles=2_000_000):
        self.program = program
        self.design = design
        if sim_period_ps is None:
            sim_period_ps = design.static_period_ps * _SIM_PERIOD_MARGIN
        if sim_period_ps < design.static_period_ps:
            raise ValueError(
                "gate-level simulation must run at or below the STA "
                f"frequency: period {sim_period_ps} ps < "
                f"{design.static_period_ps} ps"
            )
        self.sim_period_ps = sim_period_ps
        self.max_cycles = max_cycles

    def run(self):
        """Simulate and emit the event log.

        The event-log path registers one endpoint set per canonical stage
        group, so it models the default six-stage machine only; other
        pipeline specs characterise through the array path
        (:meth:`run_dta`), which keys delays per spec column.
        """
        spec = self.design.pipeline_spec
        if not spec.is_default:
            raise ValueError(
                "event-log characterisation supports the default pipeline "
                f"spec only; spec {spec.name!r} must use run_dta()"
            )
        trace = vector.simulate(self.program,
                                max_cycles=self.max_cycles).trace

        log = EventLog(sim_period_ps=self.sim_period_ps)
        endpoints_by_stage = {}
        for stage in Stage:
            stage_endpoints = self.design.netlist.endpoints_for(stage)
            endpoints_by_stage[stage] = stage_endpoints
            for endpoint in stage_endpoints:
                log.register_endpoint(
                    endpoint.name, stage.name, endpoint.setup_ps
                )

        excitation = self.design.excitation
        period = self.sim_period_ps
        for record in trace.records:
            t0 = record.cycle * period
            for stage in Stage:
                excited = excitation.group_delay(record, stage)
                for endpoint, fraction in zip(
                    endpoints_by_stage[stage], _TRAILING_FRACTIONS
                ):
                    delay = excited.delay_ps * fraction
                    # data must arrive `setup` before the (skewed) edge for
                    # a path of this delay: D = arrival - t0 + setup - skew
                    t_data = t0 + delay - endpoint.setup_ps + endpoint.skew_ps
                    t_clock = t0 + period + endpoint.skew_ps
                    log.add(
                        EndpointEvent(
                            cycle=record.cycle,
                            endpoint=endpoint.name,
                            t_data_ps=round(t_data, 3),
                            t_clock_ps=round(t_clock, 3),
                        )
                    )
        log.num_cycles = trace.num_cycles
        return GateSimResult(
            program_name=self.program.name,
            event_log=log,
            trace=trace,
            design=self.design,
            num_cycles=trace.num_cycles,
        )


    def run_dta(self):
        """Array fast path: simulate, 'log', and analyze in one sweep.

        Produces the :class:`~repro.dta.analyzer.DtaResult` (and the
        compiled trace that supplies the per-cycle attribution) that
        :meth:`run` + :func:`~repro.dta.analyzer.analyze_event_log` would
        produce — bit-identically — without materialising half a million
        :class:`EndpointEvent` objects.  The event-log timestamp
        arithmetic (per-endpoint rounding, setup/skew offsets, the
        slack-recovery subtraction) is replayed exactly on the compiled
        ground-truth delay matrix; ``tests/test_characterize_flow.py``
        holds the two paths together.

        Returns ``(dta_result, compiled_trace)``.
        """
        from repro.dta.analyzer import DtaResult
        from repro.dta.compiled import compile_vector_run, worst_per_cycle

        spec = self.design.pipeline_spec
        run = vector.simulate(self.program, max_cycles=self.max_cycles,
                              spec=spec)
        compiled = compile_vector_run(run, self.design.excitation)

        recovered = recovered_stage_delays(
            compiled.delays, self.design, self.sim_period_ps
        )
        cycle_max, limiting = worst_per_cycle(recovered)
        dta = DtaResult(
            sim_period_ps=self.sim_period_ps,
            num_cycles=compiled.num_cycles,
            stage_delays={
                column: recovered[:, column]
                for column in range(spec.num_stages)
            },
            cycle_max=cycle_max,
            limiting_stage=limiting,
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
    noise of the timestamps, which is why extraction must run on *this*
    matrix to stay bit-identical to the event-log reference path.
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


def run_gatesim(program, design, sim_period_ps=None):
    """Convenience wrapper for one characterisation run."""
    return GateLevelSimulator(program, design, sim_period_ps).run()
