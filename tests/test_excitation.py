"""Excitation-model tests: bounds, worst patterns, determinism, scaling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.trace import CycleRecord, Stage, StageView
from repro.timing.excitation import (
    ExcitationModel,
    driver_view,
    ex_criticality,
    is_worst_pattern,
)
from repro.timing.library import CellLibrary
from repro.timing.profiles import (
    BUBBLE_CLASS,
    DesignVariant,
    load_profile,
)

import oracle

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)

PROFILE = load_profile(DesignVariant.CRITICAL_RANGE)
MODEL = ExcitationModel(PROFILE)


def make_record(ex_mnemonic="l.add", ex_class="l.add(i)", a=1, b=2,
                pc=0x100, redirect=False, stall=False, bubble_ex=False):
    ex_view = (
        StageView() if bubble_ex else StageView(
            mnemonic=ex_mnemonic, timing_class=ex_class, pc=pc, seq=7
        )
    )
    other = StageView(
        mnemonic="l.addi", timing_class="l.add(i)", pc=pc + 4, seq=8
    )
    slots = tuple(
        ex_view if stage == Stage.EX else other for stage in Stage
    )
    return CycleRecord(
        cycle=0, slots=slots,
        ex_operands=None if bubble_ex else (a, b),
        redirect=redirect, stall=stall,
    )


class TestWorstPatterns:
    def test_mul_all_ones(self):
        assert is_worst_pattern("l.mul", 0xFFFFFFFF, 0xFFFFFFFF)
        assert not is_worst_pattern("l.mul", 0xFFFFFFFF, 1)

    def test_alu_and_setflag(self):
        assert is_worst_pattern("l.add", 0xFFFFFFFF, 0xFFFFFFFF)
        assert is_worst_pattern("l.sfeq", 0xFFFFFFFF, 0xFFFFFFFF)
        assert not is_worst_pattern("l.add", 0, 0)

    def test_shift_needs_all_ones_input(self):
        assert is_worst_pattern("l.slli", 0xFFFFFFFF, 3)
        assert not is_worst_pattern("l.slli", 1, 31)

    def test_memory_high_address(self):
        assert is_worst_pattern("l.lwz", 0xFFFFFFF0, 0)
        assert is_worst_pattern("l.sw", 0xFFFFFFFC, 5)
        assert not is_worst_pattern("l.lwz", 0x10000, 0)

    def test_div_worst_divisor(self):
        assert is_worst_pattern("l.div", 0xFFFFFFFF, 1)
        assert not is_worst_pattern("l.div", 0xFFFFFFFF, 2)

    def test_jumps_always_worst(self):
        assert is_worst_pattern("l.j", 0, 0)
        assert is_worst_pattern("l.jr", 0, 0)

    def test_branch_worst_when_taken(self):
        assert is_worst_pattern("l.bf", 0, 0, taken=True)
        assert not is_worst_pattern("l.bf", 0, 0, taken=False)

    def test_nop_constant(self):
        assert is_worst_pattern("l.nop", 0, 0)

    def test_movhi_immediate_pattern(self):
        assert is_worst_pattern("l.movhi", 0, 0xFFFF)
        assert not is_worst_pattern("l.movhi", 0, 0x1234)


class TestCriticality:
    def test_worst_pattern_is_one(self):
        assert ex_criticality("l.mul", 0xFFFFFFFF, 0xFFFFFFFF, 0x40) == 1.0

    @given(a=u32, b=u32)
    @settings(max_examples=200)
    def test_bounded(self, a, b):
        crit = ex_criticality("l.add", a, b, 0x100)
        assert 0.0 <= crit <= 1.0

    @given(a=u32, b=u32)
    @settings(max_examples=200)
    def test_non_worst_below_ceiling(self, a, b):
        if not is_worst_pattern("l.xor", a, b):
            assert ex_criticality("l.xor", a, b, 0x10) <= 0.97

    def test_deterministic(self):
        assert ex_criticality("l.add", 5, 9, 0x20) == \
            ex_criticality("l.add", 5, 9, 0x20)

    def test_pc_sensitivity(self):
        values = {
            ex_criticality("l.add", 5, 9, pc) for pc in range(0, 400, 4)
        }
        assert len(values) > 50   # different sites excite different paths


class TestGroupDelays:
    @given(a=u32, b=u32)
    @settings(max_examples=200)
    def test_ex_delay_never_exceeds_class_max(self, a, b):
        record = make_record(a=a, b=b)
        excited = MODEL.group_delay(record, Stage.EX)
        assert excited.delay_ps <= PROFILE.ex_spec("l.add(i)").max_ps + 1e-6

    def test_worst_pattern_reaches_max_exactly(self):
        record = make_record(a=0xFFFFFFFF, b=0xFFFFFFFF)
        excited = MODEL.group_delay(record, Stage.EX)
        assert excited.delay_ps == pytest.approx(
            PROFILE.ex_spec("l.add(i)").max_ps
        )

    def test_bubble_delay(self):
        record = make_record(bubble_ex=True)
        excited = MODEL.group_delay(record, Stage.EX)
        assert excited.driver_class == BUBBLE_CLASS
        assert excited.delay_ps == pytest.approx(
            PROFILE.bubble_delays[Stage.EX]
        )

    def test_adr_driven_by_ex(self):
        record = make_record(ex_mnemonic="l.j", ex_class="l.j",
                             redirect=True)
        excited = MODEL.group_delay(record, Stage.ADR)
        assert excited.driver_class == "l.j"
        assert excited.delay_ps == pytest.approx(
            PROFILE.adr_redirect.max_ps
        )
        assert excited.redirect

    def test_adr_sequential_without_redirect(self):
        record = make_record()
        excited = MODEL.group_delay(record, Stage.ADR)
        assert excited.delay_ps == pytest.approx(PROFILE.adr_seq.max_ps)

    def test_adr_bubble_driver(self):
        record = make_record(bubble_ex=True)
        excited = MODEL.group_delay(record, Stage.ADR)
        assert excited.driver_class == BUBBLE_CLASS
        assert excited.delay_ps == pytest.approx(PROFILE.adr_seq.max_ps)

    def test_stall_gives_hold_delay(self):
        record = make_record(stall=True)
        excited = MODEL.group_delay(record, Stage.ADR)
        assert excited.held
        assert excited.delay_ps == pytest.approx(PROFILE.hold_delay_ps)

    def test_cycle_max_covers_all_groups(self):
        record = make_record(ex_mnemonic="l.mul", ex_class="l.mul(i)",
                             a=0xFFFFFFFF, b=0xFFFFFFFF)
        assert oracle.cycle_max(MODEL, record) == pytest.approx(
            PROFILE.ex_spec("l.mul(i)").max_ps
        )

    def test_driver_view_mapping(self):
        record = make_record()
        assert driver_view(record, Stage.ADR) == record.view(Stage.EX)
        for stage in (Stage.FE, Stage.DC, Stage.EX, Stage.CTRL, Stage.WB):
            assert driver_view(record, stage) == record.view(stage)


class TestVoltageScaling:
    def test_delays_scale_with_library(self):
        low_voltage = ExcitationModel(PROFILE, CellLibrary.at(0.60))
        record = make_record(a=0xFFFFFFFF, b=0xFFFFFFFF)
        ref = MODEL.group_delay(record, Stage.EX).delay_ps
        scaled = low_voltage.group_delay(record, Stage.EX).delay_ps
        assert scaled > ref
        assert scaled / ref == pytest.approx(
            low_voltage.library.delay_scale, rel=1e-3
        )

    def test_scaling_preserves_ratios(self):
        """Voltage scaling must not change which class is slower."""
        low_voltage = ExcitationModel(PROFILE, CellLibrary.at(0.55))
        fast = make_record(ex_mnemonic="l.slli", ex_class="l.sll(i)",
                           a=0xFFFFFFFF, b=3)
        slow = make_record(ex_mnemonic="l.mul", ex_class="l.mul(i)",
                           a=0xFFFFFFFF, b=0xFFFFFFFF)
        assert (
            low_voltage.group_delay(slow, Stage.EX).delay_ps
            > low_voltage.group_delay(fast, Stage.EX).delay_ps
        )
