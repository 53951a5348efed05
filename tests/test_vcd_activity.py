"""VCD-lite writer and switching-activity tests.

The paper's gate-level simulation emits value change dumps (VCDs) that
feed the power analysis (Fig. 2).  :func:`write_vcd` renders a compact,
standard-syntax VCD of a pipeline trace — one signal per stage
occupancy, the redirect/stall strobes and the per-cycle EX operand bus —
the same per-cycle signals :mod:`repro.power.activity` reduces to a
switching-activity estimate.
"""

import pytest

from repro.power.activity import (
    activity_scaled_power_uw,
    analyze_activity,
)
from repro.power.model import PowerModel
from repro.sim import simulate
from repro.sim.trace import Stage
from repro.workloads import get_kernel

#: VCD identifier characters for our signals.
_IDS = {
    "clk": "!",
    Stage.ADR: "a",
    Stage.FE: "f",
    Stage.DC: "d",
    Stage.EX: "e",
    Stage.CTRL: "c",
    Stage.WB: "w",
    "redirect": "r",
    "stall": "s",
    "ex_a": "A",
    "ex_b": "B",
}


def write_vcd(trace, timescale_ps=1000):
    """Render a PipelineTrace as VCD text.

    Stage signals carry 1 when the stage holds a real instruction and 0
    for bubbles; ``ex_a``/``ex_b`` carry the 32-bit execute-stage operand
    buses whose toggling drives datapath power.
    """
    lines = [
        "$date repro $end",
        "$version repro pipeline trace $end",
        f"$timescale {timescale_ps}ps $end",
        "$scope module or1k_core $end",
        f"$var wire 1 {_IDS['clk']} clk $end",
    ]
    for stage in Stage:
        lines.append(
            f"$var wire 1 {_IDS[stage]} {stage.name.lower()}_valid $end"
        )
    lines.append(f"$var wire 1 {_IDS['redirect']} redirect $end")
    lines.append(f"$var wire 1 {_IDS['stall']} stall $end")
    lines.append(f"$var wire 32 {_IDS['ex_a']} ex_operand_a $end")
    lines.append(f"$var wire 32 {_IDS['ex_b']} ex_operand_b $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    previous = {}

    def emit(identifier, value, width=1):
        if previous.get(identifier) == value:
            return
        previous[identifier] = value
        if width == 1:
            lines.append(f"{value}{identifier}")
        else:
            lines.append(f"b{value:032b} {identifier}")

    for record in trace.records:
        lines.append(f"#{record.cycle * 2}")
        emit(_IDS["clk"], 1)
        for stage in Stage:
            emit(_IDS[stage], 0 if record.slots[stage].is_bubble else 1)
        emit(_IDS["redirect"], 1 if record.redirect else 0)
        emit(_IDS["stall"], 1 if record.stall else 0)
        a, b = record.ex_operands if record.ex_operands else (0, 0)
        if a is None or b is None:   # drained slot past the halt
            a, b = 0, 0
        emit(_IDS["ex_a"], a, width=32)
        emit(_IDS["ex_b"], b, width=32)
        lines.append(f"#{record.cycle * 2 + 1}")
        emit(_IDS["clk"], 0)
    return "\n".join(lines) + "\n"


def count_value_changes(vcd_text):
    """Number of value-change lines (a cheap activity proxy for tests)."""
    count = 0
    for line in vcd_text.splitlines():
        if line and (line[0] in "01b") and not line.startswith("b$"):
            count += 1
    return count


def run_trace(name):
    return simulate(get_kernel(name).program()).trace


class TestVcd:
    def test_structure(self):
        text = write_vcd(run_trace("fib"))
        assert text.startswith("$date")
        assert "$enddefinitions $end" in text
        assert "$var wire 32 A ex_operand_a $end" in text
        assert "#0" in text

    def test_timestamps_cover_all_cycles(self):
        trace = run_trace("fib")
        text = write_vcd(trace)
        last_time = (trace.num_cycles - 1) * 2 + 1
        assert f"#{last_time}" in text

    def test_changes_only_on_change(self):
        """Value lines must only appear when a signal toggles."""
        trace = run_trace("fib")
        text = write_vcd(trace)
        changes = count_value_changes(text)
        # upper bound: every signal changing every cycle
        assert changes < trace.num_cycles * 11
        # lower bound: the clock alone toggles twice per cycle
        assert changes >= trace.num_cycles * 2

    def test_redirect_strobe_present(self):
        text = write_vcd(run_trace("statemachine"))
        assert "1r" in text and "0r" in text


class TestActivity:
    def test_report_fields(self):
        report = analyze_activity(run_trace("crc32"))
        assert report.num_cycles > 0
        assert report.mean_operand_toggles > 0
        assert 0 <= report.control_rate <= 1
        assert 0 <= report.multiplier_rate <= 1
        assert report.activity_factor > 0
        assert "activity" in report.summary()

    def test_mul_heavy_has_higher_mul_rate(self):
        matmult = analyze_activity(run_trace("matmult"))
        crc = analyze_activity(run_trace("crc32"))
        assert matmult.multiplier_rate > crc.multiplier_rate

    def test_suite_factors_near_unity(self):
        factors = [
            analyze_activity(run_trace(name)).activity_factor
            for name in ("crc32", "matmult", "bubblesort", "statemachine")
        ]
        mean = sum(factors) / len(factors)
        assert 0.5 < mean < 2.0

    def test_scaled_power(self):
        model = PowerModel()
        base = model.total_power_uw(0.70, 500.0)
        busy = activity_scaled_power_uw(model, 0.70, 500.0, 1.3)
        idle = activity_scaled_power_uw(model, 0.70, 500.0, 0.7)
        assert busy > base > idle
        # leakage is activity-independent
        assert idle > model.leakage_power_uw(0.70)

    def test_empty_trace_rejected(self):
        from repro.sim.trace import PipelineTrace
        with pytest.raises(ValueError):
            analyze_activity(PipelineTrace(program_name="empty"))
