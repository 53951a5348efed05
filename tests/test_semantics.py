"""Semantics tests of the oracle's ``compute``: every instruction kind,
plus property checks."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.isa.instruction import Instruction
from repro.utils.bitops import to_signed32, to_unsigned32

from oracle import SemanticsError, compute, load_extract

u32 = st.integers(min_value=0, max_value=0xFFFFFFFF)


def run(mnemonic, a=0, b=0, imm=0, flag=False, carry=False, pc=0x100,
        rd=3, ra=4, rb=5):
    instruction = Instruction(mnemonic, rd=rd, ra=ra, rb=rb, imm=imm)
    return compute(instruction, a, b, flag, carry, pc)


class TestArithmetic:
    def test_add(self):
        assert run("l.add", a=2, b=3).value == 5

    def test_add_wraps_and_sets_carry(self):
        result = run("l.add", a=0xFFFFFFFF, b=1)
        assert result.value == 0
        assert result.carry is True

    def test_addi_sign_extended(self):
        assert run("l.addi", a=10, imm=-3).value == 7

    def test_addc_consumes_carry(self):
        assert run("l.addc", a=1, b=1, carry=True).value == 3
        assert run("l.addc", a=1, b=1, carry=False).value == 2

    def test_sub(self):
        assert run("l.sub", a=5, b=7).value == to_unsigned32(-2)
        assert run("l.sub", a=5, b=7).carry is True   # borrow

    @given(a=u32, b=u32)
    def test_add_matches_python(self, a, b):
        assert run("l.add", a=a, b=b).value == (a + b) & 0xFFFFFFFF

    @given(a=u32, b=u32)
    def test_sub_add_inverse(self, a, b):
        total = run("l.add", a=a, b=b).value
        assert run("l.sub", a=total, b=b).value == a


class TestLogic:
    def test_and_or_xor(self):
        assert run("l.and", a=0b1100, b=0b1010).value == 0b1000
        assert run("l.or", a=0b1100, b=0b1010).value == 0b1110
        assert run("l.xor", a=0b1100, b=0b1010).value == 0b0110

    def test_andi_zero_extends(self):
        assert run("l.andi", a=0xFFFFFFFF, imm=0xFFFF).value == 0xFFFF

    def test_xori_sign_extends(self):
        assert run("l.xori", a=0, imm=-1).value == 0xFFFFFFFF

    @given(a=u32)
    def test_xor_self_inverse(self, a):
        assert run("l.xor", a=a, b=a).value == 0


class TestShifts:
    def test_sll(self):
        assert run("l.slli", a=1, imm=4).value == 16
        assert run("l.sll", a=1, b=31).value == 0x80000000

    def test_srl_vs_sra(self):
        assert run("l.srli", a=0x80000000, imm=31).value == 1
        assert run("l.srai", a=0x80000000, imm=31).value == 0xFFFFFFFF

    def test_shift_amount_masked_to_5_bits(self):
        assert run("l.sll", a=1, b=33).value == 2   # 33 & 31 == 1

    def test_ror(self):
        assert run("l.rori", a=1, imm=1).value == 0x80000000

    @given(a=u32, amount=st.integers(min_value=0, max_value=31))
    def test_srl_matches_python(self, a, amount):
        assert run("l.srl", a=a, b=amount).value == a >> amount


class TestMultiplyDivide:
    def test_mul_signed(self):
        assert run("l.mul", a=to_unsigned32(-3), b=5).value == to_unsigned32(-15)

    def test_mulu_low_word(self):
        result = run("l.mulu", a=0xFFFFFFFF, b=2)
        assert result.value == 0xFFFFFFFE

    def test_muli(self):
        assert run("l.muli", a=7, imm=-2).value == to_unsigned32(-14)

    def test_div_signed_truncates_toward_zero(self):
        assert run("l.div", a=7, b=2).value == 3
        assert run("l.div", a=to_unsigned32(-7), b=2).value == to_unsigned32(-3)

    def test_divu(self):
        assert run("l.divu", a=0xFFFFFFFE, b=2).value == 0x7FFFFFFF

    def test_div_by_zero_defined(self):
        assert run("l.div", a=7, b=0).value == 0xFFFFFFFF
        assert run("l.divu", a=7, b=0).value == 0xFFFFFFFF

    @given(a=u32, b=u32)
    def test_mul_matches_python(self, a, b):
        expected = (to_signed32(a) * to_signed32(b)) & 0xFFFFFFFF
        assert run("l.mul", a=a, b=b).value == expected


class TestMoves:
    def test_movhi(self):
        assert run("l.movhi", imm=0x1234).value == 0x12340000

    def test_extensions(self):
        assert run("l.exths", a=0x8000).value == 0xFFFF8000
        assert run("l.extbs", a=0x80).value == 0xFFFFFF80
        assert run("l.exthz", a=0xABCD1234).value == 0x1234
        assert run("l.extbz", a=0xABCD1234).value == 0x34

    def test_cmov(self):
        assert run("l.cmov", a=1, b=2, flag=True).value == 1
        assert run("l.cmov", a=1, b=2, flag=False).value == 2

    def test_ff1(self):
        assert run("l.ff1", a=0).value == 0
        assert run("l.ff1", a=1).value == 1
        assert run("l.ff1", a=0x80000000).value == 32
        assert run("l.ff1", a=0b1100).value == 3


class TestSetFlag:
    def test_signed_vs_unsigned(self):
        minus_one = to_unsigned32(-1)
        assert run("l.sfgts", a=1, b=minus_one).flag is True
        assert run("l.sfgtu", a=1, b=minus_one).flag is False

    def test_eq_ne(self):
        assert run("l.sfeq", a=5, b=5).flag is True
        assert run("l.sfne", a=5, b=5).flag is False

    def test_immediate_forms(self):
        assert run("l.sfltsi", a=to_unsigned32(-5), imm=0).flag is True
        assert run("l.sfltui", a=5, imm=10).flag is True
        assert run("l.sfgesi", a=0, imm=0).flag is True

    @given(a=u32, b=u32)
    def test_trichotomy(self, a, b):
        lt = run("l.sfltu", a=a, b=b).flag
        eq = run("l.sfeq", a=a, b=b).flag
        gt = run("l.sfgtu", a=a, b=b).flag
        assert [lt, eq, gt].count(True) == 1


class TestMemoryOps:
    def test_load_effective_address(self):
        result = run("l.lwz", a=0x1000, imm=-4)
        assert result.mem_addr == 0xFFC
        assert result.mem_size == 4

    def test_store_truncates_value(self):
        result = run("l.sb", a=0x100, b=0x1FF, imm=0)
        assert result.store_value == 0xFF
        assert result.mem_size == 1

    def test_misaligned_access_rejected(self):
        with pytest.raises(SemanticsError):
            run("l.lwz", a=2, imm=0)
        with pytest.raises(SemanticsError):
            run("l.sh", a=1, imm=0)

    def test_load_extract_variants(self):
        assert load_extract("l.lwz", 0x80000000) == 0x80000000
        assert load_extract("l.lbs", 0x80) == 0xFFFFFF80
        assert load_extract("l.lbz", 0x80) == 0x80
        assert load_extract("l.lhs", 0x8000) == 0xFFFF8000
        assert load_extract("l.lhz", 0x8000) == 0x8000


class TestControl:
    def test_jump_target_pc_relative(self):
        result = run("l.j", imm=4, pc=0x100)
        assert result.branch_taken is True
        assert result.branch_target == 0x110

    def test_backward_jump(self):
        result = run("l.j", imm=-4, pc=0x100)
        assert result.branch_target == 0xF0

    def test_jal_links_past_delay_slot(self):
        result = run("l.jal", imm=4, pc=0x100)
        assert result.link_value == 0x108

    def test_branch_on_flag(self):
        assert run("l.bf", imm=2, flag=True).branch_taken is True
        assert run("l.bf", imm=2, flag=False).branch_taken is False
        assert run("l.bnf", imm=2, flag=False).branch_taken is True

    def test_jr_target_from_register(self):
        result = run("l.jr", b=0x2000)
        assert result.branch_target == 0x2000

    def test_jr_misaligned_rejected(self):
        with pytest.raises(SemanticsError):
            run("l.jr", b=0x2001)

    def test_nop_has_no_effects(self):
        result = run("l.nop")
        assert result.value is None
        assert result.flag is None
        assert result.branch_taken is None
