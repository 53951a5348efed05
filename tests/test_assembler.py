"""Assembler, disassembler and builder tests."""

import pytest

from repro.asm import (
    AssemblerError,
    ProgramBuilder,
    assemble,
    disassemble,
    disassemble_program,
)
from repro.asm.assembler import (
    _evaluate,
    _ExpressionEvaluator,
    _split_operands,
)
from repro.asm.program import DATA_BASE, Program
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction


class TestBasicAssembly:
    def test_single_instruction(self):
        program = assemble("l.addi r3, r4, -12")
        instruction = program.instruction_at(0)
        assert instruction == Instruction("l.addi", rd=3, ra=4, imm=-12)

    def test_comments_and_blank_lines(self):
        program = assemble(
            "# header comment\n\n  l.nop  ; trailing\n\nl.nop 0x1\n"
        )
        assert program.size_words == 2

    def test_labels_and_branches(self):
        program = assemble(
            "start:\n"
            "    l.addi r1, r0, 3\n"
            "loop:\n"
            "    l.addi r1, r1, -1\n"
            "    l.sfgtsi r1, 0\n"
            "    l.bf loop\n"
            "    l.nop\n"
        )
        branch = program.instruction_at(12)
        assert branch.mnemonic == "l.bf"
        assert branch.imm == (4 - 12) // 4

    def test_forward_references(self):
        program = assemble(
            "    l.j end\n"
            "    l.nop\n"
            "    l.nop\n"
            "end:\n"
            "    l.nop 0x1\n"
        )
        assert program.instruction_at(0).imm == 3

    def test_entry_symbol_detection(self):
        program = assemble("  l.nop\nstart:\n  l.nop 0x1\n")
        assert program.entry == 4

    def test_explicit_entry_symbol(self):
        program = assemble("a:\n l.nop\nb:\n l.nop 0x1\n", entry_symbol="b")
        assert program.entry == 4


class TestDirectives:
    def test_org(self):
        program = assemble(".org 0x100\nl.nop\n")
        assert 0x100 in program.words

    def test_word_and_space(self):
        program = assemble(
            ".data\n"
            "table:\n"
            "    .word 1, 2, 0xdeadbeef\n"
            "    .space 8\n"
            "after:\n"
            "    .word after\n"
        )
        assert program.words[DATA_BASE] == 1
        assert program.words[DATA_BASE + 8] == 0xDEADBEEF
        assert program.symbols["after"] == DATA_BASE + 20
        assert program.words[DATA_BASE + 20] == DATA_BASE + 20

    def test_equ_and_expressions(self):
        program = assemble(
            ".equ N, 5\n"
            ".equ M, N*2+1\n"
            "l.addi r1, r0, M\n"
        )
        assert program.instruction_at(0).imm == 11

    def test_align(self):
        program = assemble("l.nop\n.align 16\naligned:\nl.nop\n")
        assert program.symbols["aligned"] == 16

    def test_data_section_base(self):
        program = assemble("l.nop\n.data\nd:\n.word 7\n")
        assert program.symbols["d"] == DATA_BASE

    def test_hi_lo_pair_with_ori(self):
        """hi()/lo() must compose with l.movhi + l.ori (zero-extending)."""
        program = assemble(
            ".equ ADDR, 0xEDB88320\n"
            "l.movhi r5, hi(ADDR)\n"
            "l.ori   r5, r5, lo(ADDR)\n"
        )
        movhi = program.instruction_at(0)
        ori = program.instruction_at(4)
        assert (movhi.imm << 16) | ori.imm == 0xEDB88320

    def test_char_literal(self):
        program = assemble("l.addi r1, r0, 'A'\n")
        assert program.instruction_at(0).imm == 65


class TestOperandSyntax:
    def test_displacement(self):
        program = assemble("l.lwz r3, -8(r2)\nl.sw 12(r4), r5\n")
        load = program.instruction_at(0)
        store = program.instruction_at(4)
        assert (load.imm, load.ra) == (-8, 2)
        assert (store.imm, store.ra, store.rb) == (12, 4, 5)

    def test_empty_displacement(self):
        program = assemble("l.lwz r3, (r2)\n")
        assert program.instruction_at(0).imm == 0

    def test_register_aliases(self):
        program = assemble("l.add r3, sp, lr\n")
        instruction = program.instruction_at(0)
        assert (instruction.ra, instruction.rb) == (1, 9)


class TestAssemblyErrors:
    @pytest.mark.parametrize("source,fragment", [
        ("l.bogus r1, r2, r3", "unknown"),
        ("l.addi r1, r2", "expects 3"),
        ("l.addi r1, r2, undefined_sym", "undefined symbol"),
        ("x:\nx:\n l.nop", "duplicate label"),
        ("l.lwz r1, 5(notareg)", "not a valid register"),
        (".bogus 4", "unknown directive"),
        ("l.addi r1, r0, ((3)", "parenthes"),
        (".align 3\nl.nop", "power of two"),
        ("l.addi r1, r0, 99999", "does not fit in 16 bits"),
        ("l.addi r1, r0, 08", "invalid integer literal '08'"),
        ("l.lwz r1, -08(r2)", "invalid integer literal '08'"),
        (".org 0\nl.nop\n.org 0\nl.nop", "assembled twice"),
        (".space", "needs one operand"),
    ])
    def test_error_cases(self, source, fragment):
        with pytest.raises(AssemblerError, match=fragment):
            assemble(source)

    def test_error_carries_line_number(self):
        try:
            assemble("l.nop\nl.bogus\n")
        except AssemblerError as err:
            assert err.line_number == 2
        else:
            pytest.fail("expected AssemblerError")

    def test_misaligned_branch_target(self):
        with pytest.raises(AssemblerError, match="aligned"):
            assemble(".equ T, 0x102\nl.j T\n")


class TestFastPaths:
    """The integer-literal and no-parenthesis shortcuts give the general
    path's operands, values and errors."""

    @staticmethod
    def _general_value(text, symbols):
        try:
            return _ExpressionEvaluator(text, symbols).evaluate()
        except AssemblerError as err:
            return str(err)

    @staticmethod
    def _general_split(text):
        """The character-by-character splitter, written out."""
        operands, depth, current = [], 0, []
        for char in text:
            depth += (char == "(") - (char == ")")
            if char == "," and depth == 0:
                operands.append("".join(current).strip())
                current = []
            else:
                current.append(char)
        tail = "".join(current).strip()
        return operands + [tail] if tail else operands

    @pytest.mark.parametrize("text", [
        "0", "00", "7", "-7", "123", "-2048", "0x1F", "0XfF", "-0x10",
        "0b101", "0B0", "08", "-08", "0x", "0b2", "1_000", "0o17", "+5",
        "- 5", "5 ", "sym", "sym+4", "hi(sym)", "'a'", "4*3",
    ])
    def test_literal_matches_expression_path(self, text):
        symbols = {"sym": 0x10004}
        try:
            fast = _evaluate(text, symbols)
        except AssemblerError as err:
            fast = str(err)
        assert fast == self._general_value(text, symbols)

    @pytest.mark.parametrize("text", [
        "", " ", "r1", "r1, r2", " r1 ,r2 , 3 ", "a,,b", "a,", ",a", ",",
        "a, b, ", "r1,r2,-1",
    ])
    def test_split_matches_general_path(self, text):
        assert _split_operands(text) == self._general_split(text)

    def test_error_line_number_for_encoder_range(self):
        with pytest.raises(AssemblerError) as info:
            assemble("l.nop\nl.addi r1, r0, 99999\n")
        assert info.value.line_number == 2


class TestProgramContainer:
    def test_duplicate_address_rejected(self):
        program = Program()
        program.add_word(0, 0x15000000)
        with pytest.raises(ValueError, match="twice"):
            program.add_word(0, 0x15000000)

    def test_unaligned_rejected(self):
        with pytest.raises(ValueError):
            Program().add_word(2, 0)

    def test_symbol_lookup_error(self):
        with pytest.raises(KeyError, match="nope"):
            Program().symbol("nope")

    def test_dump_listing(self):
        program = assemble("start:\n l.addi r1, r0, 1\n l.nop 0x1\n")
        listing = program.dump()
        assert "l.addi r1,r0,1" in listing


class TestDisassembler:
    def test_single_word(self):
        word = encode(Instruction("l.addi", rd=3, ra=4, imm=-12))
        assert disassemble(word) == "l.addi r3,r4,-12"

    def test_branch_target_comment(self):
        word = encode(Instruction("l.j", imm=4))
        text = disassemble(word, address=0x100)
        assert "0x00000110" in text

    def test_program_fixpoint(self):
        """asm -> encode -> disassemble -> asm -> identical words."""
        source = (
            "start:\n"
            "    l.movhi r2, 0x1234\n"
            "    l.ori   r2, r2, 0x5678\n"
            "    l.lwz   r3, 4(r2)\n"
            "    l.sfeq  r3, r2\n"
            "    l.bf    start\n"
            "    l.nop\n"
            "    l.nop   0x1\n"
        )
        first = assemble(source)
        listing = disassemble_program(first, with_addresses=False)
        second = assemble(listing)
        assert first.words == second.words


class TestProgramBuilder:
    def test_builds_and_resolves_labels(self):
        builder = ProgramBuilder()
        builder.label("top")
        builder.op("l.addi", rd=1, ra=1, imm=-1)
        builder.op("l.sfgtsi", ra=1, imm=0)
        builder.op("l.bf", target="top")
        builder.op("l.nop")
        builder.nop_halt()
        program = builder.build()
        assert program.instruction_at(8).imm == -2
        assert program.instruction_at(16).imm == 1   # halt marker

    def test_register_names(self):
        builder = ProgramBuilder()
        builder.op("l.add", rd="r3", ra="sp", rb="lr")
        program = builder.build()
        instruction = program.instruction_at(0)
        assert (instruction.rd, instruction.ra, instruction.rb) == (3, 1, 9)

    def test_undefined_label_rejected(self):
        builder = ProgramBuilder()
        builder.op("l.j", target="nowhere")
        with pytest.raises(ValueError, match="nowhere"):
            builder.build()

    def test_label_on_non_branch_rejected(self):
        builder = ProgramBuilder()
        builder.label("x")
        builder.op("l.addi", rd=1, ra=0, imm=0, target="x")
        with pytest.raises(ValueError, match="cannot take a label"):
            builder.build()

    def test_half_word_label_references(self):
        # forward hi()/lo() references, as the assembler resolves them
        builder = ProgramBuilder()
        builder.op("l.movhi", rd=3, target="data", half="hi")
        builder.op("l.ori", rd=3, ra=3, target="data", half="lo")
        builder.nop_halt()
        builder.org(0x12340)
        builder.label("data")
        builder.word(7)
        program = builder.build()
        expected = assemble(
            "    l.movhi r3, hi(data)\n"
            "    l.ori   r3, r3, lo(data)\n"
            "    l.nop   0x1\n"
            "    .org 0x12340\n"
            "data:\n"
            "    .word 7\n"
        )
        assert program.words == expected.words
        assert program.instructions == expected.instructions
        assert program.instruction_at(0).imm == 0x1
        assert program.instruction_at(4).imm == 0x2340

    def test_half_must_be_hi_or_lo(self):
        with pytest.raises(ValueError, match="half"):
            ProgramBuilder().op("l.movhi", rd=3, target="x", half="mid")

    def test_word_and_org(self):
        builder = ProgramBuilder()
        builder.op("l.nop")
        builder.org(0x40)
        builder.word(0xCAFEBABE)
        program = builder.build()
        assert program.words[0x40] == 0xCAFEBABE
