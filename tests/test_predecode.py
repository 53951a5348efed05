"""Table-driven decode vs the per-instruction reference decode.

``repro.sim.predecode.DecodedImage`` builds every column of a program
image from per-mnemonic table rows and array arithmetic, and loads the
image into memory with one page fill per page.  ``oracle.reference_image``
is the straightforward formulation: one spec lookup, one slot encoding
and one metadata row per text word, one 4-byte store per image word.  The
two must agree field by field on every program.
"""

import numpy as np
import pytest

from oracle import reference_image
from repro.asm.program import Program
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import SPECS, Format
from repro.sim import SimulationError
from repro.sim.predecode import _MAX_DENSE_WORDS, DecodedImage
from repro.workloads import resolve_program
from repro.workloads.kernels import all_kernels
from repro.workloads.randomgen import program_stream

_COLUMNS = ("np_pc", "np_cls", "np_kind", "np_dest", "np_src", "np_mnem")


def assert_images_equal(program):
    image = DecodedImage(program)
    reference = reference_image(program)
    assert image.addrs == reference.addrs
    assert image.instrs == reference.instrs
    assert len(image.slots) == len(reference.slots)
    for index, (slot, expected) in enumerate(
            zip(image.slots, reference.slots)):
        assert slot == expected, (program.name, index, slot, expected)
        if slot is not None:
            assert [type(field) for field in slot] == [
                type(field) for field in expected
            ], (program.name, index)
    for name in _COLUMNS:
        column = getattr(image, name)
        expected = getattr(reference, name)
        assert column.dtype == expected.dtype, name
        np.testing.assert_array_equal(column, expected, err_msg=name)
    assert image.class_names == reference.class_names
    assert image.lookup == reference.lookup
    assert image.sparse == reference.sparse
    assert image.memory_proto._pages == reference.memory_proto._pages
    return image


@pytest.mark.parametrize("name", [kernel.name for kernel in all_kernels()])
def test_every_kernel(name):
    assert_images_equal(resolve_program(name))


def test_random_programs():
    programs = program_stream(seed=5, length=60, repeats=1, count=200)
    for program in programs:
        assert_images_equal(program)


def _operands(spec, step):
    """A valid operand set for ``spec`` that varies with ``step``:
    negative immediates for signed formats, full-width unsigned ones
    otherwise."""
    signed = spec.signed_imm
    if spec.fmt in (Format.J, Format.BRANCH):
        imm = -(step + 3) if step % 2 else step + 5
    elif spec.fmt == Format.SHIFT_IMM:
        imm = (7 * step) % 32
    elif signed:
        imm = -(step * 97 % 32768) - 1 if step % 2 else step * 131
    else:
        imm = 0xFFFF - step
    return dict(rd=(step % 31) + 1, ra=(step * 7) % 32, rb=(step * 5) % 32,
                imm=imm)


def _directed_program():
    """Every SPECS mnemonic twice (odd and even operand patterns), the
    halt and non-halt nop, a mnemonic outside the table and a data
    word."""
    program = Program(name="directed")
    address = 0
    for step, spec in enumerate(list(SPECS.values()) * 2):
        instruction = Instruction(spec.mnemonic, **_operands(spec, step))
        program.add_word(address, encode(instruction), instruction)
        address += 4
    for instruction in (Instruction("l.nop", imm=1), Instruction("l.nop")):
        program.add_word(address, encode(instruction), instruction)
        address += 4
    program.add_word(address, 0, Instruction("l.custom", rd=1, ra=2, rb=3,
                                             imm=9))
    address += 4
    program.add_word(address + 64, 0xDEADBEEF)
    return program


def test_directed_program_covers_every_mnemonic():
    program = _directed_program()
    image = assert_images_equal(program)
    mnemonics = {instruction.mnemonic for instruction in image.instrs}
    assert set(SPECS) < mnemonics
    uncovered = image.instrs.index(Instruction("l.custom", rd=1, ra=2,
                                               rb=3, imm=9))
    assert image.slots[uncovered] is None
    assert image.np_cls[uncovered] == -1


def test_sparse_addresses():
    """Text beyond the dense lookup range decodes through the sparse map
    (the step loop fetches it through its miss branch)."""
    program = Program(name="sparse")
    base = (_MAX_DENSE_WORDS + 3) * 4
    for offset, instruction in enumerate((
        Instruction("l.addi", rd=3, ra=0, imm=-5),
        Instruction("l.j", imm=-1),
        Instruction("l.nop", imm=1),
    )):
        program.add_word(base + 4 * offset, encode(instruction), instruction)
    program.add_word(0x100, encode(Instruction("l.ori", rd=1, imm=7)),
                     Instruction("l.ori", rd=1, imm=7))
    image = assert_images_equal(program)
    assert image.lookup is None
    assert image.instrs[image.sparse[base + 4]] == Instruction("l.j", imm=-1)


def test_empty_program():
    image = assert_images_equal(Program(name="empty"))
    assert image.slots == [] and image.lookup is None


def test_unaligned_text_entry_fails_closed():
    """Two text entries in one word: the unaligned one would own the
    word's lookup slot and retire in place of the aligned fetch, so the
    decode refuses the image and names the address."""
    program = Program(name="unaligned")
    program.instructions = {
        0x0: Instruction("l.addi", rd=1, imm=1),
        0x2: Instruction("l.addi", rd=2, imm=2),
        0x4: Instruction("l.nop", imm=1),
    }
    program.words = {0x0: 0x9C200001, 0x4: 0x15000001}
    with pytest.raises(SimulationError,
                       match="unaligned text entry at 0x00000002"):
        DecodedImage(program)
