"""The dispatch-table ISS against the oracle's object-layer ISS.

``repro.sim.predecode.collect`` is the package's only architectural
simulator; ``oracle.FunctionalSimulator`` (one ``Instruction`` and one
``compute`` call per step) is the reference it is held to.  On a run
that halts, the two must agree on the architectural state, every memory
word, the retired stream and every ``IssData`` column, and
``vector.simulate`` must hand the same state, memory and retired stream
to its caller.  On a fault, ``collect`` raises ``SimulationError`` with
the oracle's message.  The corpora: sequencing and delay-slot directed
programs, the pinned golden programs, every bundled kernel, 60 seeded
random programs, sparse text, a jump into a data word and the empty
program; the faults: misaligned fetches, loads, stores and jump-register
targets, control in a delay slot, undecodable words and budget overruns.
"""

import numpy as np
import pytest

from repro.asm import assemble
from repro.asm.program import Program
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.sim import SimulationError, predecode, simulate
from repro.sim.predecode import _MAX_DENSE_WORDS
from repro.stream.sources import random_source
from repro.workloads import all_kernels, characterization_suite
from repro.workloads.randomgen import program_stream

import oracle

BUDGET = 4_000_000

#: ``IssData`` columns compared value for value, dtype included.
_COLUMNS = ("pcs", "a_vals", "b_vals", "taken", "targets", "kind", "dest",
            "src", "mnem")


@pytest.fixture(autouse=True)
def fresh_images():
    predecode.clear_images()
    yield
    predecode.clear_images()


def assert_same_pass(program, max_cycles=BUDGET):
    """Run both ISSs; return the production ``IssData``, or the text of
    the ``SimulationError`` both raise."""
    try:
        expected = oracle.iss_data(program, max_cycles)
    except (SimulationError, oracle.SemanticsError) as error:
        with pytest.raises(SimulationError) as raised:
            predecode.collect(program, max_cycles)
        assert str(raised.value) == str(error), program.name
        return str(error)
    data = predecode.collect(program, max_cycles)
    assert data.state.snapshot() == expected.state.snapshot(), program.name
    assert data.state.instret == expected.state.instret
    assert list(data.memory.words()) == list(expected.memory.words())
    assert data.retired == expected.retired
    assert data.instrs == expected.instrs
    for name in _COLUMNS:
        column = getattr(data, name)
        reference = getattr(expected, name)
        assert column.dtype == reference.dtype, name
        np.testing.assert_array_equal(column, reference, err_msg=name)
    assert ([data.class_names[c] for c in data.cls.tolist()]
            == [expected.class_names[c] for c in expected.cls.tolist()])
    assert data.store_words == expected.store_words
    return data


def assert_same_run(program):
    """:func:`assert_same_pass`, plus the pipeline run's architectural
    result against the oracle's."""
    data = assert_same_pass(program)
    run = simulate(program, max_cycles=BUDGET)
    assert run.state.snapshot() == data.state.snapshot()
    assert list(run.memory.words()) == list(data.memory.words())
    assert run.retired == data.retired
    return data


def run_source(source, **kwargs):
    return assert_same_pass(assemble(source), **kwargs)


class TestSequencing:
    def test_straight_line(self):
        data = run_source(
            "l.addi r1, r0, 5\n"
            "l.addi r2, r1, 6\n"
            "l.nop 0x1\n"
        )
        assert data.state.regs[1] == 5
        assert data.state.regs[2] == 11
        assert data.state.instret == 3

    def test_r0_stays_zero(self):
        data = run_source("l.addi r0, r0, 7\nl.nop 0x1\n")
        assert data.state.regs[0] == 0

    def test_memory_readback(self):
        data = run_source(
            "l.addi r1, r0, 0x40\n"
            "l.addi r2, r0, 99\n"
            "l.sw   0(r1), r2\n"
            "l.lwz  r3, 0(r1)\n"
            "l.nop  0x1\n"
        )
        assert data.state.regs[3] == 99


class TestDelaySlots:
    def test_taken_branch_executes_slot(self):
        data = run_source(
            "    l.sfeq r0, r0\n"       # flag := 1
            "    l.bf   target\n"
            "    l.addi r1, r0, 11\n"   # delay slot must execute
            "    l.addi r2, r0, 22\n"   # skipped
            "target:\n"
            "    l.addi r3, r0, 33\n"
            "    l.nop  0x1\n"
        )
        assert data.state.regs[1] == 11
        assert data.state.regs[2] == 0
        assert data.state.regs[3] == 33

    def test_not_taken_branch_falls_through(self):
        data = run_source(
            "    l.sfne r0, r0\n"       # flag := 0
            "    l.bf   away\n"
            "    l.addi r1, r0, 1\n"
            "    l.addi r2, r0, 2\n"
            "    l.nop  0x1\n"
            "away:\n"
            "    l.nop  0x1\n"
        )
        assert data.state.regs[1] == 1
        assert data.state.regs[2] == 2

    def test_jal_sets_link_past_slot(self):
        data = run_source(
            "    l.jal sub\n"
            "    l.nop\n"
            "    l.addi r1, r0, 1\n"    # return lands here (pc 8)
            "    l.nop 0x1\n"
            "sub:\n"
            "    l.jr  r9\n"
            "    l.addi r2, r0, 2\n"    # delay slot of the return
        )
        assert data.state.regs[9] == 8
        assert data.state.regs[1] == 1
        assert data.state.regs[2] == 2

    def test_control_in_delay_slot_rejected(self):
        error = run_source(
            "    l.j a\n"
            "    l.j b\n"
            "a:\n    l.nop 0x1\n"
            "b:\n    l.nop 0x1\n"
        )
        assert error == (
            "control-transfer instruction in delay slot at 0x00000004"
        )

    def test_loop_iteration_count(self):
        data = run_source(
            "    l.addi r1, r0, 5\n"
            "    l.addi r2, r0, 0\n"
            "loop:\n"
            "    l.addi r2, r2, 1\n"
            "    l.addi r1, r1, -1\n"
            "    l.sfgtsi r1, 0\n"
            "    l.bf  loop\n"
            "    l.nop\n"
            "    l.nop 0x1\n"
        )
        assert data.state.regs[2] == 5


class TestHaltAndErrors:
    def test_halt_stops_execution(self):
        data = run_source("l.nop 0x1\nl.addi r1, r0, 1\n")
        assert data.state.instret == 1
        assert data.state.regs[1] == 0

    def test_step_after_halt_rejected(self):
        simulator = oracle.run_program(assemble("l.nop 0x1\n"))
        with pytest.raises(SimulationError, match="halted"):
            simulator.step()

    def test_runaway_guard(self):
        error = run_source("spin:\n l.j spin\n l.nop\n", max_cycles=100)
        assert error == "exceeded 100 cycles without halting (pc=0x00000000)"

    def test_undecodable_fetch_rejected(self):
        error = run_source(".word 0xFFFFFFFF\n")
        assert error.startswith("cannot decode word 0xffffffff at 0x00000000")

    def test_retired_trace_order(self):
        data = run_source(
            "l.addi r1, r0, 1\nl.addi r2, r0, 2\nl.nop 0x1\n"
        )
        mnemonics = [i.mnemonic for i in data.instrs]
        assert mnemonics == ["l.addi", "l.addi", "l.nop"]


class TestCorpora:
    """Every halting program of the corpora: the same pass field for
    field, and the same architectural result out of ``simulate``."""

    def test_golden_programs(self):
        programs = list(characterization_suite())
        for seed in (1, 42):
            programs += random_source(seed, count=12, length=400, repeats=2)
        for program in programs:
            assert_same_run(program)

    @pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
    def test_kernel(self, kernel):
        assert_same_run(kernel.program())

    def test_random_programs(self):
        programs = list(program_stream(seed=3, length=400, count=60))
        assert len(programs) == 60
        for program in programs:
            assert_same_run(program)


def _program(name, entries, entry=0):
    """Program of ``(address, Instruction or raw word)`` entries."""
    program = Program(name=name, entry=entry)
    for address, item in entries:
        if isinstance(item, Instruction):
            program.add_word(address, encode(item), item)
        else:
            program.add_word(address, item)
    return program


class TestFetchOutsideDenseText:
    """Fetches the image's dense lookup cannot answer decode on demand,
    into the run's own slots; the shared image never changes."""

    def test_sparse_text(self):
        base = (_MAX_DENSE_WORDS + 3) * 4
        program = _program("sparse", [
            (base, Instruction("l.addi", rd=3, ra=0, imm=-5)),
            (base + 4, Instruction("l.j", imm=2)),
            (base + 8, Instruction("l.addi", rd=4, ra=3, imm=1)),
            (base + 12, Instruction("l.addi", rd=5, ra=0, imm=9)),
            (base + 16, Instruction("l.nop", imm=1)),
            (0x100, Instruction("l.ori", rd=1, imm=7)),
        ], entry=base)
        image = predecode.image_for(program)
        assert image.lookup is None
        data = assert_same_run(program)
        assert data.state.regs[3:6] == [0xFFFFFFFB, 0xFFFFFFFC, 9]
        assert len(image.slots) == 6

    def test_jump_into_data_words(self):
        text = assemble("\n".join([
            "    l.movhi r3, 0x1",      # r3 = 0x10000, the data words
            "    l.jr   r3",
            "    l.addi r1, r0, 1",
            "    l.nop  0x1",
        ]), name="data-jump")
        program = _program("data-jump", [
            *((address, text.instructions[address])
              for address in sorted(text.instructions)),
            (0x10000, encode(Instruction("l.addi", rd=4, ra=0, imm=44))),
            (0x10004, encode(Instruction("l.muli", rd=5, ra=4, imm=3))),
            (0x10008, encode(Instruction("l.sw", ra=0, rb=5, imm=0x200))),
            # back to the halt in the text, through a data delay slot
            (0x1000C, encode(Instruction("l.j", imm=(0xC - 0x1000C) >> 2))),
            (0x10010, encode(Instruction("l.sfeqi", ra=4, imm=44))),
        ])
        image = predecode.image_for(program)
        slots = list(image.slots)
        lookup = list(image.lookup)
        data = assert_same_run(program)
        assert data.state.regs[4:6] == [44, 132] and data.state.flag
        assert data.memory.load_word(0x200) == 132
        assert data.pcs.tolist()[3:8] == list(range(0x10000, 0x10014, 4))
        assert image.slots == slots and image.lookup == lookup
        # the cached pass serves a second caller without re-decoding
        assert assert_same_pass(program).retired == data.retired

    def test_empty_program(self):
        error = assert_same_pass(Program(name="empty"))
        assert error == (
            "control-transfer instruction in delay slot at 0x00000004"
        )


class TestFaults:
    """Every fault raises ``SimulationError`` with the oracle's text."""

    @pytest.mark.parametrize("source, message", [
        ("l.addi r1, r0, 2\nl.lwz r2, 0(r1)\nl.nop 0x1\n",
         "misaligned 4-byte access at 0x00000002"),
        ("l.addi r1, r0, 1\nl.lhz r2, 2(r1)\nl.nop 0x1\n",
         "misaligned 2-byte access at 0x00000003"),
        ("l.addi r1, r0, 5\nl.lhs r2, 0(r1)\nl.nop 0x1\n",
         "misaligned 2-byte access at 0x00000005"),
        ("l.addi r1, r0, 6\nl.sw 0(r1), r1\nl.nop 0x1\n",
         "misaligned 4-byte access at 0x00000006"),
        ("l.addi r1, r0, 7\nl.sh 0(r1), r1\nl.nop 0x1\n",
         "misaligned 2-byte access at 0x00000007"),
        ("l.addi r1, r0, 10\nl.jr r1\nl.nop\nl.nop 0x1\n",
         "misaligned 4-byte access at 0x0000000a"),
        ("l.addi r1, r0, 13\nl.jalr r1\nl.nop\nl.nop 0x1\n",
         "misaligned 4-byte access at 0x0000000d"),
        ("l.j a\nl.bf a\na:\nl.nop 0x1\n",
         "control-transfer instruction in delay slot at 0x00000004"),
    ])
    def test_fault_text(self, source, message):
        assert run_source(source) == message

    def test_misaligned_fetch(self):
        program = _program("odd-entry", [
            (0, Instruction("l.nop", imm=1)),
        ], entry=2)
        assert assert_same_pass(program) == "misaligned fetch at 0x00000002"

    def test_undecodable_data_word_after_a_jump(self):
        program = _program("bad-word", [
            (0, Instruction("l.j", imm=4)),
            (4, Instruction("l.nop")),
            (16, 0xFFFFFFFF),
        ])
        error = assert_same_pass(program)
        assert error.startswith("cannot decode word 0xffffffff at 0x00000010")

    def test_overrun_below_a_cached_run(self):
        program = all_kernels()[0].program()
        steps = assert_same_pass(program).state.instret
        for budget in (steps - 1, steps // 2, 1, 0):
            error = assert_same_pass(program, max_cycles=budget)
            assert error.startswith(f"exceeded {budget} cycles"), budget
        assert predecode.collect(program, steps).state.instret == steps

    def test_unaligned_text_entry(self):
        """A hand-built text entry at an unaligned address fails closed
        (``Program.add_word`` rejects one; ``instructions`` can still
        hold it): the oracle's exact-address fetch never retires it, and
        the dense lookup must not retire it for the word it shares."""
        program = Program(name="unaligned")
        program.add_word(0, encode(Instruction("l.nop", imm=1)))
        program.instructions[0x1] = Instruction("l.addi", rd=1, ra=0, imm=5)
        program.instructions[0x4] = Instruction("l.nop", imm=1)
        assert oracle.iss_data(program, BUDGET).state.regs[1] == 0
        with pytest.raises(SimulationError,
                           match="unaligned text entry at 0x00000001"):
            predecode.collect(program, BUDGET)
        with pytest.raises(SimulationError, match="0x00000001"):
            simulate(program, max_cycles=BUDGET)

    def test_instruction_outside_the_dispatch_table(self):
        """The oracle fails on the spec lookup; production names the
        mnemonic and its address."""
        program = _program("custom", [
            (0, Instruction("l.addi", rd=1, ra=0, imm=1)),
        ])
        program.add_word(4, 0, Instruction("l.custom", rd=1, ra=2, rb=3,
                                           imm=9))
        with pytest.raises(KeyError):
            oracle.iss_data(program, BUDGET)
        with pytest.raises(SimulationError,
                           match="unsupported instruction l.custom at "
                                 "0x00000004"):
            predecode.collect(program, BUDGET)
