"""Differential harness: the vectorized pipeline engine vs. the
cycle-stepping reference.

The two-phase engine in :mod:`repro.sim.vector` must be *bit-identical* to
the oracle's ``PipelineSimulator`` (``tests/oracle.py``) — same cycle
records (all six stage views, operands, stall/redirect flags), same
retired stream, same architectural state, and the same compiled-trace
matrices including the lazily materialised ground-truth delay matrix.  This module enforces that
over:

- every bundled kernel (including the div-heavy ``gcd``) at several
  divider latencies;
- directed corner programs exercising the drain tail (divides and
  load-use hazards straddling the halt), squashed wrong-path slots and
  memory aliasing;
- at least 200 seeded semi-random programs from the characterisation
  generator;
- Hypothesis-generated random programs, when Hypothesis is installed
  (the seeded sweep above is the deterministic fallback).

Programs the vector engine cannot reconstruct (stores into fetched
addresses) must fail closed with a :class:`SimulationError`, ISS errors
must surface as the reference raises them, and no module under
``src/repro`` may bring back a second, cycle-stepping pipeline — also
verified here.
"""

import ast
import importlib.util
import pathlib


import numpy as np
import pytest

import repro

from repro.asm import assemble
from repro.dta.compiled import compile_trace, compile_vector_run
from repro.sim import vector
from repro.sim import SimulationError
from repro.timing.design import build_design
from repro.workloads.kernels import all_kernels
from repro.workloads.randomgen import generate_characterization_program

from oracle import PipelineSimulator

try:
    from hypothesis import given, settings, strategies as st
    HAVE_HYPOTHESIS = True
except ImportError:                                   # pragma: no cover
    HAVE_HYPOTHESIS = False

#: Shared design for compiled-trace comparisons (delays included).
DESIGN = build_design()

#: Number of seeded random programs in the deterministic sweep.
NUM_RANDOM_PROGRAMS = 200


def assert_equivalent(program, div_latency=32, check_delays=False):
    """Assert the vector engine reproduces the scalar engine exactly."""
    scalar = PipelineSimulator(program, div_latency=div_latency)
    scalar.run()
    run = vector.simulate(program, div_latency=div_latency)

    reference = scalar.trace
    fast = run.trace
    assert fast.num_cycles == reference.num_cycles
    assert fast.retired == reference.retired
    for expected, actual in zip(reference.records, fast.records):
        assert actual == expected, (
            f"{program.name}: cycle {expected.cycle} differs\n"
            f"  scalar: {expected}\n  vector: {actual}"
        )
    assert run.state.regs == scalar.state.regs
    assert run.state.flag == scalar.state.flag
    assert run.state.carry == scalar.state.carry
    assert run.state.instret == scalar.state.instret

    reference_compiled = compile_trace(reference, DESIGN.excitation)
    fast_compiled = compile_vector_run(run, DESIGN.excitation)
    assert fast_compiled.class_names == reference_compiled.class_names
    for field in ("class_ids", "bubble", "held", "stall", "redirect"):
        assert np.array_equal(
            getattr(fast_compiled, field), getattr(reference_compiled, field)
        ), f"{program.name}: compiled {field} differs"
    if check_delays:
        assert np.array_equal(
            fast_compiled.delays, reference_compiled.delays
        ), f"{program.name}: delay matrices differ"


class TestBundledKernels:
    @pytest.mark.parametrize(
        "kernel", all_kernels(), ids=lambda kernel: kernel.name
    )
    def test_kernel_bit_identical(self, kernel):
        assert_equivalent(kernel.program(), check_delays=True)

    @pytest.mark.parametrize("div_latency", [1, 2, 7, 32])
    def test_divider_latencies(self, div_latency):
        from repro.workloads.kernels import get_kernel

        assert_equivalent(
            get_kernel("gcd").program(), div_latency=div_latency
        )


def _assemble(body, name="directed"):
    """Small directed program with a scratch data area."""
    source = "\n".join([
        "start:",
        "    l.movhi r20, hi(scratch)",
        "    l.ori   r20, r20, lo(scratch)",
        *[f"    {line}" for line in body],
        "    l.nop   0x1",
        "    l.nop",
        "    l.nop",
        ".data",
        "scratch:",
        "    .space 64",
    ])
    return assemble(source, name=name)


class TestDirectedCorners:
    """Drain-tail and hazard corners the array reconstruction must nail."""

    def test_load_use_interlock(self):
        assert_equivalent(_assemble([
            "l.addi r3, r0, 7",
            "l.sw   0(r20), r3",
            "l.lwz  r4, 0(r20)",
            "l.addi r5, r4, 1",      # load-use: one bubble
        ]))

    def test_load_no_use_gap(self):
        assert_equivalent(_assemble([
            "l.lwz  r4, 0(r20)",
            "l.addi r6, r0, 1",      # independent: no stall
            "l.addi r5, r4, 1",
        ]))

    def test_div_then_halt(self):
        assert_equivalent(_assemble([
            "l.addi r3, r0, 100",
            "l.addi r4, r0, 3",
            "l.div  r5, r3, r4",     # divider drains right into the halt
        ]), div_latency=5)

    def test_div_in_drain(self):
        # the divide sits *after* the halt: it is fetched, enters EX while
        # draining, never starts, and stalls the back of the trace
        program = assemble("\n".join([
            "start:",
            "    l.addi r3, r0, 9",
            "    l.addi r4, r0, 2",
            "    l.nop  0x1",
            "    l.div  r5, r3, r4",
            "    l.addi r6, r0, 1",
            "    l.nop",
        ]), name="drain-div")
        assert_equivalent(program, div_latency=4)

    def test_load_use_in_drain(self):
        program = assemble("\n".join([
            "start:",
            "    l.movhi r20, hi(scratch)",
            "    l.ori   r20, r20, lo(scratch)",
            "    l.nop  0x1",
            "    l.lwz  r4, 0(r20)",
            "    l.addi r5, r4, 1",   # post-halt load-use interlock
            "    l.nop",
            "    l.nop",
            ".data",
            "scratch:",
            "    .space 16",
        ]), name="drain-load-use")
        assert_equivalent(program)

    def test_taken_branch_squash(self):
        assert_equivalent(_assemble([
            "l.addi r3, r0, 1",
            "l.sfeqi r3, 1",
            "l.bf   target",
            "l.addi r4, r0, 2",      # delay slot
            "l.addi r5, r0, 3",      # squashed wrong-path word",
            "target:",
            "l.addi r6, r0, 4",
        ]))

    def test_halt_in_delay_slot_of_taken_branch(self):
        # the wrong-path victim is fetched *after* the halt word
        program = assemble("\n".join([
            "start:",
            "    l.addi r3, r0, 1",
            "    l.sfeqi r3, 1",
            "    l.bf   target",
            "    l.nop  0x1",         # halt retires in the delay slot
            "    l.addi r5, r0, 3",
            "target:",
            "    l.addi r6, r0, 4",
            "    l.nop",
        ]), name="halt-delay-slot")
        assert_equivalent(program)

    def test_backward_loop(self):
        assert_equivalent(_assemble([
            "l.addi r3, r0, 5",
            "loop:",
            "l.addi r3, r3, -1",
            "l.sfgtsi r3, 0",
            "l.bf   loop",
            "l.nop",
        ]))

    def test_memory_aliasing(self):
        # byte/half/word stores overlapping the same word, then loads
        assert_equivalent(_assemble([
            "l.movhi r3, 0x1234",
            "l.ori  r3, r3, 0x5678",
            "l.sw   0(r20), r3",
            "l.sb   1(r20), r3",
            "l.sh   2(r20), r3",
            "l.lwz  r4, 0(r20)",
            "l.lbs  r5, 1(r20)",
            "l.lhz  r6, 2(r20)",
            "l.addi r7, r6, 1",
        ]))

    def test_jal_and_jr(self):
        program = assemble("\n".join([
            "start:",
            "    l.jal  callee",
            "    l.addi r3, r0, 1",
            "    l.addi r4, r0, 2",
            "    l.nop  0x1",
            "    l.nop",
            "callee:",
            "    l.jr   r9",
            "    l.addi r5, r0, 3",
        ]), name="call-return")
        assert_equivalent(program)

    def test_max_cycles_exceeded_raises_like_scalar(self):
        program = _assemble(["l.addi r3, r0, 1"] * 8)
        with pytest.raises(SimulationError):
            PipelineSimulator(program).run(max_cycles=5)
        with pytest.raises(SimulationError):
            vector.simulate(program, max_cycles=5)


class TestFailClosed:
    """Programs the array engine cannot reconstruct raise; nothing falls
    back to a second engine."""

    def test_store_into_fetch_path_raises(self):
        # the program stores a word into its own upcoming straight-line
        # path; fetch-time and execute-time decode could diverge, so the
        # vector engine must refuse and name the word
        source = "\n".join([
            "start:",
            "    l.movhi r3, hi(patched)",
            "    l.ori  r3, r3, lo(patched)",
            "    l.movhi r4, 0x1520",     # l.nop 0x0 encoding (0x15000000)",
            "    l.sw   0(r3), r4",
            "patched:",
            "    l.addi r5, r0, 7",
            "    l.nop  0x1",
            "    l.nop",
        ])
        program = assemble(source, name="self-store")
        patched = program.symbol("patched")
        with pytest.raises(SimulationError,
                           match=f"store into fetched word {patched:#010x}"):
            vector.simulate(program)

        # the integrated compile path fails closed the same way
        from repro.dta.compiled import (
            clear_compiled_cache,
            get_compiled_trace,
        )

        clear_compiled_cache()
        with pytest.raises(SimulationError, match="fetched word"):
            get_compiled_trace(program, DESIGN)
        clear_compiled_cache()

    def test_iss_error_propagates(self):
        # a control transfer in a delay slot is an architectural error:
        # the ISS pass raises it, as the cycle-stepping reference does
        program = assemble("\n".join([
            "start:",
            "    l.j    there",
            "    l.j    there",          # transfer in the delay slot
            "there:",
            "    l.nop  0x1",
            "    l.nop",
        ]), name="delay-slot-jump")
        with pytest.raises(SimulationError, match="delay slot"):
            PipelineSimulator(program).run()
        with pytest.raises(SimulationError, match="delay slot"):
            vector.simulate(program)

    def test_clean_programs_simulate(self):
        for kernel in all_kernels():
            run = vector.simulate(kernel.program())
            assert run.num_cycles > run.num_retired > 0


class TestOneSimulator:
    """The package ships exactly one pipeline engine and one ISS: no
    module under ``src/repro`` defines or imports a cycle-stepping
    pipeline or the object-layer ISS, and the dispatch loop never hands
    a run back to another engine."""

    SOURCE_ROOT = pathlib.Path(repro.__file__).parent

    def test_no_pipeline_module(self):
        assert importlib.util.find_spec("repro.sim.pipeline") is None

    @pytest.mark.parametrize("module", ["repro.sim.iss",
                                        "repro.isa.semantics"])
    def test_no_object_iss_module(self, module):
        assert importlib.util.find_spec(module) is None

    def test_no_object_iss(self):
        offenders = []
        for path in sorted(self.SOURCE_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef) \
                        and node.name == "FunctionalSimulator":
                    offenders.append(f"{path.name}: defines {node.name}")
                elif isinstance(node, ast.ImportFrom) and any(
                        alias.name == "compute" for alias in node.names):
                    offenders.append(f"{path.name}: imports compute from "
                                     f"{node.module}")
                elif isinstance(node, ast.FunctionDef) \
                        and node.name == "collect":
                    for inner in ast.walk(node):
                        if isinstance(inner, ast.Return) and (
                                inner.value is None
                                or (isinstance(inner.value, ast.Constant)
                                    and inner.value.value is None)):
                            offenders.append(
                                f"{path.name}:{inner.lineno}: collect "
                                "returns None")
        assert not offenders, offenders

    def test_no_cycle_stepping_engine(self):
        offenders = []
        for path in sorted(self.SOURCE_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                name = None
                if isinstance(node, ast.ClassDef):
                    name = node.name
                    steps = any(
                        isinstance(item, ast.FunctionDef)
                        and item.name == "step"
                        for item in node.body
                    )
                    # a class stepping the clock and emitting per-cycle
                    # records is a second pipeline engine
                    if steps and "CycleRecord" in ast.unparse(node):
                        offenders.append(f"{path.name}: class {name}")
                elif isinstance(node, ast.ImportFrom):
                    if (node.module or "").endswith("sim.pipeline") or any(
                        alias.name == "PipelineSimulator"
                        for alias in node.names
                    ):
                        offenders.append(f"{path.name}: imports "
                                         f"{node.module}")
                if name == "PipelineSimulator":
                    offenders.append(f"{path.name}: defines {name}")
        assert not offenders, offenders


class TestOneCharacterisationPath:
    """The package ships exactly one characterisation path: the
    materialised event log and the per-record extraction live only in
    ``tests/oracle.py``."""

    SOURCE_ROOT = pathlib.Path(repro.__file__).parent
    EVENT_LOG_NAMES = frozenset({
        "EventLog", "EndpointEvent", "analyze_event_log", "run_gatesim",
        "GateSimResult", "extract_lut",
    })

    @pytest.mark.parametrize("module", ["repro.dta.events",
                                        "repro.dta.analyzer"])
    def test_no_event_log_module(self, module):
        assert importlib.util.find_spec(module) is None

    def test_no_event_log_names(self):
        offenders = []
        for path in sorted(self.SOURCE_ROOT.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for node in ast.walk(tree):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [alias.asname or alias.name.rsplit(".")[-1]
                             for alias in node.names]
                elif isinstance(node, ast.Name):
                    names = [node.id]
                elif isinstance(node, ast.Attribute):
                    names = [node.attr]
                else:
                    continue
                offenders += [
                    f"{path.relative_to(self.SOURCE_ROOT)}:{node.lineno} "
                    f"{name}"
                    for name in names if name in self.EVENT_LOG_NAMES
                ]
        assert not offenders, offenders


class TestRandomPrograms:
    """Seeded semi-random sweep (runs with or without Hypothesis).

    The characterisation generator mixes hazard-prone ALU/shift/multiply
    traffic, loads/stores with overlapping scratch addresses, guaranteed
    taken and not-taken control transfers, and divides — the exact mix the
    paper uses to excite worst-case paths.
    """

    @pytest.mark.parametrize("chunk", range(10))
    def test_random_program_chunk(self, chunk):
        per_chunk = NUM_RANDOM_PROGRAMS // 10
        for seed in range(chunk * per_chunk, (chunk + 1) * per_chunk):
            program = generate_characterization_program(
                seed=seed, length=40, repeats=1
            )
            assert_equivalent(
                program, check_delays=(seed % 25 == 0)
            )


_MNEMONIC_POOL = (
    "l.add", "l.addi", "l.sub", "l.and", "l.or", "l.xori", "l.slli",
    "l.srl", "l.mul", "l.ff1", "l.exths", "l.cmov", "l.sfeq", "l.sfgts",
)


if HAVE_HYPOTHESIS:

    @st.composite
    def _programs(draw):
        """Random straight-line/branchy programs over a hazardous register
        window, with aliased memory traffic and an optional divide."""
        lines = [
            "start:",
            "    l.movhi r20, hi(scratch)",
            "    l.ori   r20, r20, lo(scratch)",
            "    l.addi  r2, r0, 41",
            "    l.addi  r3, r0, -3",
        ]
        num_ops = draw(st.integers(min_value=1, max_value=24))
        for index in range(num_ops):
            choice = draw(st.integers(min_value=0, max_value=9))
            rd = draw(st.integers(min_value=2, max_value=6))
            ra = draw(st.integers(min_value=0, max_value=6))
            rb = draw(st.integers(min_value=0, max_value=6))
            if choice <= 4:
                mnemonic = draw(st.sampled_from(_MNEMONIC_POOL))
                if mnemonic.endswith("i") and mnemonic != "l.ff1":
                    imm = draw(st.integers(min_value=0, max_value=31))
                    lines.append(f"    {mnemonic} r{rd}, r{ra}, {imm}")
                elif mnemonic.startswith("l.sf"):
                    lines.append(f"    {mnemonic} r{ra}, r{rb}")
                elif mnemonic in ("l.ff1", "l.exths"):
                    lines.append(f"    {mnemonic} r{rd}, r{ra}")
                else:
                    lines.append(f"    {mnemonic} r{rd}, r{ra}, r{rb}")
            elif choice == 5:
                offset = draw(st.integers(min_value=0, max_value=3)) * 4
                lines.append(f"    l.sw   {offset}(r20), r{ra}")
            elif choice == 6:
                offset = draw(st.integers(min_value=0, max_value=3)) * 4
                lines.append(f"    l.lwz  r{rd}, {offset}(r20)")
                if draw(st.booleans()):   # load-use pressure
                    lines.append(f"    l.addi r{rd}, r{rd}, 1")
            elif choice == 7:
                lines.append(f"    l.div  r{rd}, r2, r3")
            else:
                label = f"skip_{index}"
                flag = draw(st.sampled_from(["l.sfeqi", "l.sfnei"]))
                lines.append(f"    {flag} r{ra}, 0")
                branch = draw(st.sampled_from(["l.bf", "l.bnf"]))
                lines.append(f"    {branch} {label}")
                lines.append(f"    l.addi r{rd}, r{rd}, 1")   # delay slot
                lines.append(f"    l.xori r{rb}, r{rb}, 5")   # maybe squashed
                lines.append(f"{label}:")
        lines += [
            "    l.nop  0x1",
            "    l.nop",
            "    l.nop",
            ".data",
            "scratch:",
            "    .space 32",
        ]
        div_latency = draw(st.sampled_from([1, 2, 3, 32]))
        return "\n".join(lines), div_latency

    class TestHypothesisPrograms:
        @settings(max_examples=60, deadline=None)
        @given(_programs())
        def test_random_structure_bit_identical(self, generated):
            source, div_latency = generated
            program = assemble(source, name="hyp")
            assert_equivalent(program, div_latency=div_latency)
