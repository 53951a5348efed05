"""Cycle-accurate pipeline tests: co-simulation, hazards, stage occupancy."""

import pytest

from repro.asm import assemble
from repro.sim import SimulationError
from repro.sim.trace import Stage
from repro.workloads import all_kernels
from repro.workloads.randomgen import generate_characterization_program

from oracle import FunctionalSimulator, PipelineSimulator


def cosim(source, **pipe_kwargs):
    program = assemble(source)
    iss = FunctionalSimulator(program)
    iss.run()
    pipe = PipelineSimulator(program, **pipe_kwargs)
    pipe.run()
    assert iss.state.regs == pipe.state.regs
    assert iss.state.flag == pipe.state.flag
    assert [pc for pc, _ in iss.retired] == [pc for pc, _ in pipe.trace.retired]
    return iss, pipe


class TestCosimulation:
    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda k: k.name
    )
    def test_kernels_match_iss(self, kernel):
        program = kernel.program()
        iss = FunctionalSimulator(program)
        iss.run()
        pipe = PipelineSimulator(program)
        pipe.run()
        kernel.verify_state(iss.state)
        kernel.verify_state(pipe.state)
        assert iss.state.regs == pipe.state.regs
        assert [pc for pc, _ in iss.retired] == [
            pc for pc, _ in pipe.trace.retired
        ]

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_random_programs_match_iss(self, seed):
        program = generate_characterization_program(
            seed=seed, length=250, repeats=2
        )
        iss = FunctionalSimulator(program)
        iss.run()
        pipe = PipelineSimulator(program)
        pipe.run()
        assert iss.state.regs == pipe.state.regs
        assert iss.state.instret == pipe.state.instret

    def test_memory_state_matches(self):
        source = (
            "    l.addi r1, r0, 0x200\n"
            "    l.addi r2, r0, 77\n"
            "    l.sw   0(r1), r2\n"
            "    l.sh   8(r1), r2\n"
            "    l.sb   12(r1), r2\n"
            "    l.nop  0x1\n"
        )
        iss, pipe = cosim(source)
        assert dict(iss.memory.words()) == dict(pipe.memory.words())


class TestTiming:
    def test_straight_line_latency(self):
        """First retirement after the pipeline depth, then 1 IPC."""
        _, pipe = cosim(
            "l.addi r1, r0, 1\n" * 10 + "l.nop 0x1\n"
        )
        # 11 instructions, 6-stage pipeline: cycles = depth + instructions - 1
        assert pipe.trace.num_cycles == 6 + 11 - 1

    def test_load_use_stalls_one_cycle(self):
        base = (
            "l.addi r1, r0, 0x100\n"
            "l.lwz  r2, 0(r1)\n"
            "{gap}"
            "l.add  r3, r2, r2\n"
            "l.nop 0x1\n"
        )
        _, pipe_dep = cosim(base.format(gap=""))
        _, pipe_gap = cosim(base.format(gap="l.addi r4, r0, 1\n"))
        # inserting an independent instruction hides the load-use bubble
        assert pipe_gap.trace.num_cycles == pipe_dep.trace.num_cycles

    def test_taken_branch_costs_one_bubble(self):
        taken = (
            "    l.sfeq r0, r0\n"
            "    l.bf t\n"
            "    l.nop\n"
            "t:  l.nop 0x1\n"
        )
        not_taken = (
            "    l.sfne r0, r0\n"
            "    l.bf t\n"
            "    l.nop\n"
            "t:  l.nop 0x1\n"
        )
        _, pipe_taken = cosim(taken)
        _, pipe_not = cosim(not_taken)
        assert pipe_taken.trace.num_cycles == pipe_not.trace.num_cycles + 1

    def test_div_occupies_ex(self):
        source = (
            "l.addi r1, r0, 100\n"
            "l.addi r2, r0, 7\n"
            "l.div  r3, r1, r2\n"
            "l.nop 0x1\n"
        )
        _, quick = cosim(source, div_latency=1)
        _, slow = cosim(source, div_latency=8)
        assert slow.trace.num_cycles == quick.trace.num_cycles + 7
        assert slow.state.regs[3] == 100 // 7

    def test_back_to_back_alu_no_stall(self):
        _, pipe = cosim(
            "l.addi r1, r0, 1\n"
            "l.add  r2, r1, r1\n"
            "l.add  r3, r2, r2\n"
            "l.add  r4, r3, r3\n"
            "l.nop 0x1\n"
        )
        assert pipe.state.regs[4] == 8
        assert pipe.trace.num_cycles == 6 + 5 - 1   # no stalls


class TestStageOccupancy:
    def test_instruction_flows_through_all_stages(self):
        program = assemble("l.addi r1, r0, 1\nl.nop 0x1\n")
        pipe = PipelineSimulator(program)
        pipe.run()
        # the addi (seq 0) must appear in every stage exactly once
        for stage in Stage:
            cycles = [
                r.cycle for r in pipe.trace.records
                if r.slots[stage].seq == 0 and not r.slots[stage].held
            ]
            assert len(cycles) == 1, stage
        # and in pipeline order
        order = [
            next(r.cycle for r in pipe.trace.records
                 if r.slots[stage].seq == 0)
            for stage in Stage
        ]
        assert order == sorted(order)

    def test_program_order_within_cycle(self):
        """Older instructions occupy later stages in every cycle."""
        program = generate_characterization_program(
            seed=3, length=120, repeats=1
        )
        pipe = PipelineSimulator(program)
        pipe.run()
        for record in pipe.trace.records:
            seqs = [
                record.slots[stage].seq
                for stage in reversed(Stage)   # WB .. ADR
                if record.slots[stage].seq is not None
            ]
            assert seqs == sorted(seqs)

    def test_redirect_flag_only_on_control(self):
        program = assemble(
            "    l.sfeq r0, r0\n"
            "    l.bf t\n"
            "    l.nop\n"
            "t:  l.nop 0x1\n"
        )
        pipe = PipelineSimulator(program)
        pipe.run()
        redirect_records = [r for r in pipe.trace.records if r.redirect]
        assert len(redirect_records) == 1
        assert redirect_records[0].mnemonic(Stage.EX) == "l.bf"

    def test_ex_operands_recorded(self):
        program = assemble(
            "l.addi r1, r0, 9\nl.add r2, r1, r1\nl.nop 0x1\n"
        )
        pipe = PipelineSimulator(program)
        pipe.run()
        add_record = next(
            r for r in pipe.trace.records
            if r.mnemonic(Stage.EX) == "l.add"
        )
        assert add_record.ex_operands == (9, 9)

    def test_effective_b_operand_is_immediate(self):
        program = assemble("l.addi r1, r0, -5\nl.nop 0x1\n")
        pipe = PipelineSimulator(program)
        pipe.run()
        record = next(
            r for r in pipe.trace.records
            if r.mnemonic(Stage.EX) == "l.addi"
        )
        assert record.ex_operands[1] == (-5) & 0xFFFFFFFF

    def test_cpi_reasonable_for_kernels(self):
        for kernel in all_kernels():
            pipe = PipelineSimulator(kernel.program())
            pipe.run()
            if kernel.name == "gcd":
                # the serial divider holds EX for 32 cycles per divide
                assert 2.0 < pipe.trace.cpi < 6.0
            else:
                assert 1.0 <= pipe.trace.cpi < 1.6, kernel.name


class TestPipelineErrors:
    def test_invalid_div_latency(self):
        program = assemble("l.nop 0x1\n")
        with pytest.raises(ValueError):
            PipelineSimulator(program, div_latency=0)

    def test_runaway_guard(self):
        program = assemble("spin:\n l.j spin\n l.nop\n")
        pipe = PipelineSimulator(program)
        with pytest.raises(SimulationError, match="exceeded"):
            pipe.run(max_cycles=64)

    def test_step_after_halt_rejected(self):
        program = assemble("l.nop 0x1\n")
        pipe = PipelineSimulator(program)
        pipe.run()
        with pytest.raises(SimulationError):
            pipe.step()
