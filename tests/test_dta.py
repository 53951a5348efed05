"""DTA tests: event-log analysis, skew handling, gatesim, histograms."""

import numpy as np
import pytest

import oracle
from oracle import EndpointEvent, EventLog, analyze_event_log, run_gatesim
from repro.asm import assemble
from repro.dta.gatesim import recovered_stage_delays, run_dta
from repro.dta.histograms import class_stage_delays, fig5_histogram, fig7_histograms
from repro.flow.characterize import characterize_program
from repro.sim.spec import get_pipeline_spec
from repro.sim.trace import Stage
from repro.timing.design import build_design
from repro.timing.profiles import DesignVariant
from repro.workloads import get_kernel


def _hand_log(period=2000.0, cycles=3):
    """A synthetic event log with known delays."""
    log = EventLog(sim_period_ps=period, num_cycles=cycles)
    log.register_endpoint("ex_reg_0", "EX", 25.0)
    log.register_endpoint("dc_reg_0", "DC", 25.0)
    return log


def _add_event(log, cycle, endpoint, delay, skew=0.0):
    t0 = cycle * log.sim_period_ps
    setup = log.endpoint_setup(endpoint)
    log.add(EndpointEvent(
        cycle=cycle,
        endpoint=endpoint,
        t_data_ps=t0 + delay - setup + skew,
        t_clock_ps=t0 + log.sim_period_ps + skew,
    ))


class TestAnalyzer:
    def test_recovers_known_delay(self):
        log = _hand_log()
        _add_event(log, 0, "ex_reg_0", 1500.0)
        _add_event(log, 1, "ex_reg_0", 900.0)
        _add_event(log, 2, "ex_reg_0", 1200.0)
        result = analyze_event_log(log)
        assert result.stage_delays[Stage.EX].tolist() == [
            1500.0, 900.0, 1200.0
        ]

    def test_clock_skew_cancels(self):
        """Delays must be recovered exactly despite per-endpoint skew."""
        log = _hand_log()
        _add_event(log, 0, "ex_reg_0", 1400.0, skew=+30.0)
        _add_event(log, 1, "ex_reg_0", 1400.0, skew=-30.0)
        _add_event(log, 2, "ex_reg_0", 1400.0, skew=0.0)
        result = analyze_event_log(log)
        assert np.allclose(result.stage_delays[Stage.EX], 1400.0)

    def test_max_per_group_per_cycle(self):
        log = _hand_log(cycles=1)
        log.register_endpoint("ex_reg_1", "EX", 25.0)
        _add_event(log, 0, "ex_reg_0", 1000.0)
        _add_event(log, 0, "ex_reg_1", 1600.0)
        result = analyze_event_log(log)
        assert result.stage_delays[Stage.EX][0] == 1600.0

    def test_limiting_stage(self):
        log = _hand_log(cycles=2)
        _add_event(log, 0, "ex_reg_0", 1500.0)
        _add_event(log, 0, "dc_reg_0", 900.0)
        _add_event(log, 1, "ex_reg_0", 700.0)
        _add_event(log, 1, "dc_reg_0", 1100.0)
        result = analyze_event_log(log)
        assert result.limiting_stage[0] == Stage.EX.value
        assert result.limiting_stage[1] == Stage.DC.value
        shares = result.limiting_stage_shares()
        assert shares[Stage.EX] == 0.5
        assert shares[Stage.DC] == 0.5

    def test_mean_and_speedup(self):
        log = _hand_log(cycles=2)
        _add_event(log, 0, "ex_reg_0", 1000.0)
        _add_event(log, 1, "ex_reg_0", 2000.0)
        result = analyze_event_log(log)
        assert result.mean_cycle_delay_ps == 1500.0
        assert result.genie_speedup_percent(3000.0) == pytest.approx(100.0)

    def test_unregistered_endpoint_rejected(self):
        log = _hand_log(cycles=1)
        log.add(EndpointEvent(0, "ghost", 0.0, 100.0))
        with pytest.raises(ValueError, match="unregistered"):
            analyze_event_log(log)

    def test_timing_violation_in_log_rejected(self):
        log = _hand_log(cycles=1)
        log.add(EndpointEvent(0, "ex_reg_0", t_data_ps=500.0,
                              t_clock_ps=400.0))
        with pytest.raises(ValueError, match="violation"):
            analyze_event_log(log)

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            analyze_event_log(EventLog(sim_period_ps=2000.0, num_cycles=0))


PROGRAM = assemble(
    "start:\n"
    "    l.addi r1, r0, 10\n"
    "loop:\n"
    "    l.mul  r2, r1, r1\n"
    "    l.addi r1, r1, -1\n"
    "    l.sfgtsi r1, 0\n"
    "    l.bf   loop\n"
    "    l.nop\n"
    "    l.nop  0x1\n"
    "    l.nop\n"
    "    l.nop\n",
    name="dta-mini",
)


class TestGateSim:
    def test_produces_consistent_log(self, design):
        result = run_gatesim(PROGRAM, design)
        log = result.event_log
        assert log.num_cycles == result.trace.num_cycles
        assert log.num_events == log.num_cycles * 6 * 3
        log.validate()

    def test_sim_period_must_be_safe(self, design):
        with pytest.raises(ValueError, match="STA"):
            run_dta(PROGRAM, design, sim_period_ps=1000.0)

    def test_analysis_bounded_by_profile(self, design):
        dta, _ = run_dta(PROGRAM, design)
        assert dta.max_cycle_delay_ps <= design.static_period_ps
        assert dta.mean_cycle_delay_ps < design.static_period_ps
        # the mul worst case bounds everything in this program
        assert dta.max_cycle_delay_ps <= 1899.0 + 1e-6

    def test_pc_trace_available(self, design):
        result = run_gatesim(PROGRAM, design)
        assert result.pc_trace[0] == 0
        assert len(result.pc_trace) == result.trace.num_retired

    def test_array_dta_matches_event_log(self, design):
        """The replayed event-log arithmetic recovers exactly what the
        DTA reads off the materialised log."""
        dta, compiled = run_dta(PROGRAM, design)
        reference = analyze_event_log(run_gatesim(PROGRAM, design).event_log)
        assert dta.num_cycles == reference.num_cycles == compiled.num_cycles
        assert dta.sim_period_ps == reference.sim_period_ps
        for stage in Stage:
            assert (dta.stage_delays[stage]
                    == reference.stage_delays[stage]).all(), stage
        assert (dta.cycle_max == reference.cycle_max).all()
        assert (dta.limiting_stage == reference.limiting_stage).all()


def _spec_design(spec_name):
    return build_design(DesignVariant.CRITICAL_RANGE,
                        pipeline_spec=get_pipeline_spec(spec_name))


class TestLimitingShares:
    """Fig. 6 shares are per canonical stage group on every spec."""

    @pytest.mark.parametrize("spec_name", ["baseline6", "shallow5", "deep7"])
    def test_shares_are_per_group_reduction(self, spec_name):
        design = _spec_design(spec_name)
        dta, compiled = run_dta(get_kernel("crc32").program(), design)
        recovered = recovered_stage_delays(
            compiled.delays, design, dta.sim_period_ps
        )
        group_of = np.asarray(design.pipeline_spec.group_of)
        per_group = np.full((dta.num_cycles, len(Stage)), -np.inf)
        for stage in Stage:
            columns = group_of == stage
            if columns.any():
                per_group[:, stage] = recovered[:, columns].max(axis=1)
        limiting = per_group.argmax(axis=1)
        expected = {
            stage: float((limiting == stage).sum() / dta.num_cycles)
            for stage in Stage
        }
        assert dta.limiting_stage_shares() == expected
        assert dta.dominant_stage() == Stage.EX

    def test_baseline_shares_unchanged(self, design):
        """On the six-stage spec every column is its own group, so the
        shares are the plain limiting-column counts."""
        dta, _ = run_dta(get_kernel("crc32").program(), design)
        assert dta.limiting_stage_shares() == {
            stage: float(
                (dta.limiting_stage == stage.value).sum() / dta.num_cycles
            )
            for stage in Stage
        }


class TestHistograms:
    def test_fig5_histogram_totals(self, design):
        dta, _ = run_dta(PROGRAM, design)
        histogram = fig5_histogram(dta)
        assert histogram.total == dta.num_cycles

    def test_fig7_mul_ex_delays_high(self, design):
        dta, compiled = run_dta(PROGRAM, design)
        samples = class_stage_delays(dta, compiled, "l.mul(i)")
        assert samples[Stage.EX], "mul must appear in EX"
        assert max(samples[Stage.EX]) > 1500.0
        # non-EX stages are significantly lower (paper Fig. 7)
        assert max(samples[Stage.DC]) < max(samples[Stage.EX])
        histograms = fig7_histograms(dta, compiled, "l.mul(i)")
        assert set(histograms) == set(Stage)

    def test_unseen_class_has_no_samples(self, design):
        dta, compiled = run_dta(PROGRAM, design)
        samples = class_stage_delays(dta, compiled, "l.never-seen")
        assert samples == {stage: [] for stage in Stage}

    def test_fig7_matches_per_record_attribution(self, design):
        program = get_kernel("matmult").program()
        _, _, run = characterize_program(program, design, keep_run=True)
        samples = class_stage_delays(run.dta, run.compiled, "l.mul(i)")
        reference = oracle.class_stage_delays(
            run.dta, run.compiled.trace, "l.mul(i)"
        )
        assert samples == reference

    @pytest.mark.parametrize("spec_name", ["baseline6", "deep7", "shallow5"])
    def test_fig7_ex_max_is_lut_entry(self, spec_name):
        """Fig. 7's l.mul EX samples peak at the LUT's l.mul EX entry on
        every spec (the same column-to-group attribution)."""
        design = _spec_design(spec_name)
        program = get_kernel("matmult").program()
        _, _, run = characterize_program(program, design, keep_run=True)
        samples = class_stage_delays(run.dta, run.compiled, "l.mul(i)")
        assert run.lut.is_characterized("l.mul(i)")
        assert max(samples[Stage.EX]) == run.lut.entry("l.mul(i)", Stage.EX)
        for stage in Stage:
            if samples[stage]:
                assert max(samples[stage]) <= run.lut.entry("l.mul(i)",
                                                            stage)
