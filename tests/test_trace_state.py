"""Trace-container and architectural-state tests."""

import pytest

from repro.sim.state import ArchState
from repro.sim.trace import (
    BUBBLE_VIEW,
    PIPELINE_STAGES,
    STAGE_NAMES,
    Stage,
    StageView,
)
from repro.workloads import get_kernel

from oracle import PipelineSimulator


class TestStage:
    def test_order_matches_paper(self):
        assert [stage.name for stage in PIPELINE_STAGES] == [
            "ADR", "FE", "DC", "EX", "CTRL", "WB",
        ]

    def test_names_cover_all(self):
        assert set(STAGE_NAMES) == set(Stage)

    def test_intenum_ordering(self):
        assert Stage.ADR < Stage.EX < Stage.WB


class TestStageView:
    def test_bubble_detection(self):
        assert BUBBLE_VIEW.is_bubble
        view = StageView(mnemonic="l.add", timing_class="l.add(i)", pc=0,
                         seq=1)
        assert not view.is_bubble

    def test_frozen(self):
        with pytest.raises(AttributeError):
            BUBBLE_VIEW.mnemonic = "l.add"


class TestPipelineTrace:
    @pytest.fixture(scope="class")
    def trace(self):
        pipe = PipelineSimulator(get_kernel("statemachine").program())
        pipe.run()
        return pipe.trace

    def test_cpi(self, trace):
        assert trace.cpi == trace.num_cycles / trace.num_retired

    def test_stage_utilization(self, trace):
        utilization = trace.stage_utilization()
        for stage in Stage:
            assert 0.0 < utilization[stage] <= 1.0
        # EX sees every instruction plus bubbles; ADR is always occupied
        assert utilization[Stage.ADR] > 0.9

    def test_class_mix_sums_to_retired(self, trace):
        mix = trace.class_mix()
        assert sum(mix.values()) == trace.num_retired
        assert "l.sfxx(i)" in mix

    def test_retired_trace_matches_records(self, trace):
        assert len(trace.retired_trace()) == trace.num_retired

    def test_empty_trace_cpi_rejected(self):
        from repro.sim.trace import PipelineTrace
        with pytest.raises(ValueError):
            PipelineTrace(program_name="x").cpi


class TestArchState:
    def test_r0_hardwired(self):
        state = ArchState()
        state.write_reg(0, 123)
        assert state.read_reg(0) == 0

    def test_write_truncates(self):
        state = ArchState()
        state.write_reg(5, 1 << 36)
        assert state.read_reg(5) == 0

    def test_snapshot_immutable(self):
        state = ArchState(entry=0x40)
        snap = state.snapshot()
        state.write_reg(1, 9)
        assert snap[0][1] == 0
        assert snap[3] == 0x40

    def test_repr(self):
        assert "pc=0x" in repr(ArchState())
