"""The per-record reference semantics: the test oracle.

The production engines in ``src/`` evaluate compiled-trace arrays (one
policy gather, one broadcast, one array comparison per configuration) and
characterise through the vectorized DTA replay.  The paper's claim is a
safety claim — the instruction-keyed period must cover every excited path
in every cycle (Sec. III-B) — so the differential tests hold those engines
bit-identical to the straightforward formulation kept here: one clock
step of the pipeline at a time, one pipeline record at a time, one
excitation replay per stage, one materialised event log per
characterisation program.

Nothing in ``src/`` imports this module; it is the only home of these
loops.  Tests import it as ``oracle`` (``tests/`` is on ``sys.path`` under
pytest); scripts outside ``tests/`` load it by file path.

- :func:`compute` / :func:`load_extract` — the executable semantics of
  the implemented ORBIS32 subset, one instruction at a time;
- :class:`FunctionalSimulator` (with :func:`run_program`) — the
  object-layer ISS over them, and :func:`iss_data`, its run in the
  columnar form ``repro.sim.predecode.collect`` produces (the reference
  for that dispatch-table ISS);
- :class:`PipelineSimulator` — the cycle-stepping pipeline, one clock
  at a time (the reference for ``repro.sim.vector``);
- :func:`period_for` / :func:`quantize_up` / :func:`decide` — the clock
  decision of one cycle: a policy's request for one record and a
  generator's grant for one period (the references for every policy's
  ``periods_for`` and every generator's ``quantize_up_array``), with
  :func:`attribute_cycle` (the driver class of every stage group),
  :func:`cycle_max` (the genie's per-record bound) and
  :class:`OnlineFeatureExtractor` (a learned policy's per-record
  feature row, the reference for ``repro.ml.features``);
- :func:`evaluate_program` — one program under one clock policy;
- :func:`evaluate_grid` — the ``[config][program]`` grid of
  :func:`evaluate_program` results, the shape of
  ``Session.evaluate_results``;
- :func:`evaluate_with_drift` — drift-aware evaluation (extension E2);
- :func:`evaluate_overscaling` — over-scaling scan (extension E1);
- :func:`run_gatesim` → :func:`analyze_event_log` → :func:`extract_lut`
  — the materialised event-log characterisation of one program (the
  reference for ``repro.dta.gatesim.run_dta`` and
  ``repro.dta.extraction.extract_lut_arrays``), and
  :func:`characterize`, the whole flow with the suite-order merge;
- :func:`class_stage_delays` — the per-record Fig. 7 attribution (the
  reference for ``repro.dta.histograms.class_stage_delays``);
- :func:`assert_results_identical` — the field-for-field comparator;
- :func:`reference_image` — the per-instruction decode of a program image
  (the reference for ``repro.sim.predecode.DecodedImage``);
- :func:`characterization_source` — a characterisation program as
  assembly text, for the assembler (the reference for the directly
  encoded ``repro.workloads.randomgen`` programs).
"""

import math
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from repro.adapt.online import (
    AdaptiveEvaluationResult,
    _check_scheme,
    _finish,
    _monitor_measurement,
)
from repro.approx.errors import approximate_value, error_magnitude_bits
from repro.approx.violations import ApproximateResult, OverscalingReport
from repro.clocking.controller import ControllerStats
from repro.clocking.generator import (
    ClockGeneratorError,
    IdealClockGenerator,
    MultiPLLClockGenerator,
    TunableRingOscillator,
)
from repro.clocking.policies import (
    ExOnlyLutPolicy,
    GeniePolicy,
    InstructionLutPolicy,
    LearnedPolicy,
    StaticClockPolicy,
    TwoClassPolicy,
)
from repro.dta.compiled import worst_per_cycle
from repro.dta.extraction import DEFAULT_MIN_OCCURRENCES, merge_luts
from repro.dta.gatesim import (
    MAX_CYCLES,
    DtaResult,
    _TRAILING_FRACTIONS,
    _sim_period,
)
from repro.dta.lut import DelayLUT
from repro.flow.characterize import CharacterizationResult
from repro.flow.evaluate import (
    DEFAULT_MAX_CYCLES,
    VIOLATION_TOLERANCE_PS,
    EvaluationResult,
    TimingViolation,
)
from repro.isa.encoding import EncodingError, decode
from repro.isa.opcodes import KIND_CODE, MNEMONIC_ID, SPECS, InstructionKind
from repro.isa.registers import REG_LINK
from repro.ml.features import (
    _MULDIV_GROUP_ID,
    DEFAULT_WINDOW,
    NUM_FEATURES,
    _validate_window,
    class_vocabulary,
    group_ids,
)
from repro.sim import vector
from repro.sim.memory import Memory
from repro.sim.spec import get_pipeline_spec
from repro.sim import predecode as _pd
from repro.sim.predecode import HALT_NOP_CODE, SimulationError
from repro.sim.state import ArchState
from repro.sim.trace import (
    BUBBLE_VIEW,
    CycleRecord,
    PipelineTrace,
    Stage,
    StageView,
)
from repro.timing.excitation import driver_view
from repro.timing.profiles import BUBBLE_CLASS
from repro.utils.bitops import (
    mask,
    rotate_right32,
    sign_extend,
    to_signed32,
    to_unsigned32,
)
from repro.utils.rng import RngStream
from repro.workloads.randomgen import (
    _GP_REGS,
    _MIX_CHOICE,
    _REG_ALL_ONES,
    _REG_HIGH_BASE,
    _REG_ONE,
    _REG_REPEAT,
    _REG_SCRATCH_BASE,
    _SCRATCH_WORDS,
    _SOURCE_REGS,
)
from repro.workloads.suite import characterization_suite


# -- the object-layer ISS -----------------------------------------------------
#
# The reference for ``repro.sim.predecode.collect``: one ``Instruction`` per
# fetch, one ``compute`` call per retired instruction.  ``compute`` and
# ``load_extract`` are the executable semantics of the implemented ORBIS32
# subset, written as pure functions over operand values so that
# :class:`FunctionalSimulator` and the cycle-stepping
# :class:`PipelineSimulator` share one implementation.  All register values
# are unsigned 32-bit Python ints.


class SemanticsError(ValueError):
    """Raised for semantically invalid execution (e.g. misaligned access)."""


@dataclass
class ComputeResult:
    """Outcome of the execute-stage computation of one instruction.

    Attributes
    ----------
    value:
        Result to write back to ``rd`` (``None`` if no register result or if
        it comes from memory).
    flag:
        New SR flag value (``None`` if unchanged).
    carry:
        New SR carry value (``None`` if unchanged).
    mem_addr / mem_size:
        Effective address and access width in bytes for loads/stores.
    store_value:
        Value (already truncated to width) for stores.
    branch_taken / branch_target:
        Control-transfer decision; ``branch_taken`` is ``None`` for
        non-control instructions.
    link_value:
        Return address written to the link register by ``l.jal``/``l.jalr``.
    """

    value: int = None
    flag: bool = None
    carry: bool = None
    mem_addr: int = None
    mem_size: int = 0
    store_value: int = None
    branch_taken: bool = None
    branch_target: int = None
    link_value: int = None


_LOAD_SIZES = {
    "l.lwz": 4, "l.lbz": 1, "l.lbs": 1, "l.lhz": 2, "l.lhs": 2,
}
_STORE_SIZES = {"l.sw": 4, "l.sb": 1, "l.sh": 2}

#: Size of one instruction and of the branch-delay-slot offset, in bytes.
INSTRUCTION_BYTES = 4


def compute(instruction, a, b, flag, carry, pc):
    """Evaluate ``instruction`` with operand values ``a`` (rA) and ``b`` (rB).

    ``flag`` and ``carry`` are the current SR bits; ``pc`` is the address of
    the instruction itself (used for pc-relative control transfers and link
    values).  Immediates are taken from the instruction; for immediate forms
    the ``b`` argument is ignored.
    """
    mnemonic = instruction.mnemonic
    spec = instruction.spec
    kind = spec.kind
    imm = instruction.imm

    if kind == InstructionKind.NOP:
        return ComputeResult()

    if kind == InstructionKind.ALU:
        return _compute_alu(mnemonic, a, b, imm, flag, carry)
    if kind == InstructionKind.SHIFT:
        return _compute_shift(mnemonic, a, b, imm)
    if kind == InstructionKind.MUL:
        return _compute_mul(mnemonic, a, b, imm)
    if kind == InstructionKind.DIV:
        return _compute_div(mnemonic, a, b)
    if kind == InstructionKind.MOVE:
        return _compute_move(mnemonic, a, imm, flag, b)
    if kind == InstructionKind.SETFLAG:
        rhs = b if instruction.spec.fmt.name == "SETFLAG_REG" else imm
        return ComputeResult(flag=_compare(mnemonic, a, rhs))
    if kind == InstructionKind.LOAD:
        addr = to_unsigned32(a + imm)
        size = _LOAD_SIZES[mnemonic]
        _check_alignment(addr, size)
        return ComputeResult(mem_addr=addr, mem_size=size)
    if kind == InstructionKind.STORE:
        addr = to_unsigned32(a + imm)
        size = _STORE_SIZES[mnemonic]
        _check_alignment(addr, size)
        return ComputeResult(
            mem_addr=addr, mem_size=size, store_value=b & mask(8 * size)
        )
    if kind == InstructionKind.JUMP:
        target = to_unsigned32(pc + (imm << 2))
        link = None
        if mnemonic == "l.jal":
            link = to_unsigned32(pc + 2 * INSTRUCTION_BYTES)
        return ComputeResult(
            branch_taken=True, branch_target=target, link_value=link
        )
    if kind == InstructionKind.JUMP_REG:
        _check_alignment(b, 4)
        link = None
        if mnemonic == "l.jalr":
            link = to_unsigned32(pc + 2 * INSTRUCTION_BYTES)
        return ComputeResult(
            branch_taken=True, branch_target=to_unsigned32(b), link_value=link
        )
    if kind == InstructionKind.BRANCH:
        taken = flag if mnemonic == "l.bf" else not flag
        target = to_unsigned32(pc + (imm << 2))
        return ComputeResult(branch_taken=taken, branch_target=target)
    raise AssertionError(f"unhandled kind {kind}")


def _compute_alu(mnemonic, a, b, imm, flag, carry):
    if mnemonic == "l.addi":
        b = imm
    elif mnemonic == "l.andi":
        b = imm & 0xFFFF
    elif mnemonic == "l.ori":
        b = imm & 0xFFFF
    elif mnemonic == "l.xori":
        b = sign_extend(imm, 16)

    if mnemonic in ("l.add", "l.addi"):
        total = to_unsigned32(a) + to_unsigned32(b)
        return ComputeResult(
            value=to_unsigned32(total), carry=total > mask(32)
        )
    if mnemonic == "l.addc":
        total = to_unsigned32(a) + to_unsigned32(b) + (1 if carry else 0)
        return ComputeResult(
            value=to_unsigned32(total), carry=total > mask(32)
        )
    if mnemonic == "l.sub":
        total = to_unsigned32(a) - to_unsigned32(b)
        return ComputeResult(value=to_unsigned32(total), carry=total < 0)
    if mnemonic in ("l.and", "l.andi"):
        return ComputeResult(value=to_unsigned32(a & b))
    if mnemonic in ("l.or", "l.ori"):
        return ComputeResult(value=to_unsigned32(a | b))
    if mnemonic in ("l.xor", "l.xori"):
        return ComputeResult(value=to_unsigned32(a ^ b))
    if mnemonic == "l.cmov":
        return ComputeResult(value=to_unsigned32(a if flag else b))
    raise AssertionError(f"unhandled ALU mnemonic {mnemonic}")


def _compute_shift(mnemonic, a, b, imm):
    amount = (imm if mnemonic.endswith("i") else b) & 0x1F
    a = to_unsigned32(a)
    if mnemonic in ("l.sll", "l.slli"):
        return ComputeResult(value=to_unsigned32(a << amount))
    if mnemonic in ("l.srl", "l.srli"):
        return ComputeResult(value=a >> amount)
    if mnemonic in ("l.sra", "l.srai"):
        return ComputeResult(value=to_unsigned32(to_signed32(a) >> amount))
    if mnemonic in ("l.ror", "l.rori"):
        return ComputeResult(value=rotate_right32(a, amount))
    raise AssertionError(f"unhandled shift mnemonic {mnemonic}")


def _compute_mul(mnemonic, a, b, imm):
    if mnemonic == "l.muli":
        b = imm
    if mnemonic == "l.mulu":
        product = to_unsigned32(a) * to_unsigned32(b)
    else:
        product = to_signed32(a) * to_signed32(b)
    return ComputeResult(value=to_unsigned32(product))


def _compute_div(mnemonic, a, b):
    # Division by zero does not trap in our configuration (no exception
    # unit); the quotient is architecturally undefined and we define it as
    # all-ones, which is what the mor1kx serial divider produces.
    if to_unsigned32(b) == 0:
        return ComputeResult(value=mask(32))
    if mnemonic == "l.divu":
        return ComputeResult(value=to_unsigned32(a) // to_unsigned32(b))
    quotient = abs(to_signed32(a)) // abs(to_signed32(b))
    if (to_signed32(a) < 0) != (to_signed32(b) < 0):
        quotient = -quotient
    return ComputeResult(value=to_unsigned32(quotient))


def _compute_move(mnemonic, a, imm, flag, b):
    if mnemonic == "l.movhi":
        return ComputeResult(value=to_unsigned32((imm & 0xFFFF) << 16))
    if mnemonic == "l.exths":
        return ComputeResult(value=to_unsigned32(sign_extend(a, 16)))
    if mnemonic == "l.extbs":
        return ComputeResult(value=to_unsigned32(sign_extend(a, 8)))
    if mnemonic == "l.exthz":
        return ComputeResult(value=a & 0xFFFF)
    if mnemonic == "l.extbz":
        return ComputeResult(value=a & 0xFF)
    if mnemonic == "l.ff1":
        a = to_unsigned32(a)
        if a == 0:
            return ComputeResult(value=0)
        return ComputeResult(value=(a & -a).bit_length())
    raise AssertionError(f"unhandled move mnemonic {mnemonic}")


def _compare(mnemonic, a, rhs):
    # mnemonic is e.g. "l.sfgts" / "l.sfgtsi" -> base "gts"
    base = mnemonic.replace("l.sf", "")
    if base.endswith("i"):
        base = base[:-1]
    signed = base.endswith("s") or base in ("eq", "ne")
    if signed:
        lhs, val = to_signed32(a), to_signed32(rhs)
    else:
        lhs, val = to_unsigned32(a), to_unsigned32(rhs)
    if base == "eq":
        return lhs == val
    if base == "ne":
        return lhs != val
    if base in ("gtu", "gts"):
        return lhs > val
    if base in ("geu", "ges"):
        return lhs >= val
    if base in ("ltu", "lts"):
        return lhs < val
    if base in ("leu", "les"):
        return lhs <= val
    raise AssertionError(f"unhandled comparison {mnemonic}")


def load_extract(mnemonic, raw):
    """Apply width/extension rules to raw little-pattern memory data.

    ``raw`` is the unsigned value of the loaded bytes (1, 2 or 4 bytes wide,
    already assembled by the memory model).
    """
    if mnemonic == "l.lwz":
        return to_unsigned32(raw)
    if mnemonic == "l.lbz":
        return raw & 0xFF
    if mnemonic == "l.lbs":
        return to_unsigned32(sign_extend(raw, 8))
    if mnemonic == "l.lhz":
        return raw & 0xFFFF
    if mnemonic == "l.lhs":
        return to_unsigned32(sign_extend(raw, 16))
    raise AssertionError(f"not a load mnemonic: {mnemonic}")


def _check_alignment(addr, size):
    if size > 1 and addr % size != 0:
        raise SemanticsError(
            f"misaligned {size}-byte access at {addr:#010x}"
        )


#: Hard cap on executed instructions, to catch runaway programs in tests.
DEFAULT_MAX_STEPS = 20_000_000


class FunctionalSimulator:
    """Architectural ISS over a program image, one instruction per
    :meth:`step`, with OR1K delay-slot behaviour.  ``l.nop 0x1`` halts.

    Program text wins over memory content at a fetch; any other word is
    decoded from the current data memory (unified address space, like
    the paper's tightly-coupled instruction/data SRAM pair mapped in one
    space).  ``memory`` optionally replaces the program image; the
    optional ``observer(pc, instruction, a, b, result)`` is called once
    per retired instruction with the operand values read before
    execution (:func:`iss_data` collects the columnar pass through it).
    """

    def __init__(self, program, memory=None, observer=None):
        self.program = program
        if memory is None:
            memory = Memory("dmem")
            program.load_into(memory)
        self.memory = memory
        self.state = ArchState(entry=program.entry)
        self.halted = False
        self.retired = []            # (pc, Instruction) in retirement order
        self._decode_cache = {}      # memory-resident (non-text) words only
        self._pending_target = None  # branch target to apply after the slot
        self._in_delay_slot = False
        self.observer = observer

    def fetch(self, address):
        if address % 4:
            raise SimulationError(f"misaligned fetch at {address:#010x}")
        instruction = self.program.instructions.get(address)
        if instruction is not None:
            return instruction
        cached = self._decode_cache.get(address)
        if cached is not None:
            return cached
        word = self.memory.load_word(address)
        try:
            instruction = decode(word)
        except Exception as err:
            raise SimulationError(
                f"cannot decode word {word:#010x} at {address:#010x}: {err}"
            ) from err
        self._decode_cache[address] = instruction
        return instruction

    def step(self):
        """Execute one instruction; returns the retired Instruction."""
        if self.halted:
            raise SimulationError("simulator is halted")
        state = self.state
        pc = state.pc
        instruction = self.fetch(pc)

        if self._in_delay_slot and instruction.is_control:
            raise SimulationError(
                f"control-transfer instruction in delay slot at {pc:#010x}"
            )

        a = state.read_reg(instruction.ra)
        b = state.read_reg(instruction.rb)
        result = compute(instruction, a, b, state.flag, state.carry, pc)
        if self.observer is not None:
            self.observer(pc, instruction, a, b, result)
        self._apply(instruction, result)
        self.retired.append((pc, instruction))
        state.instret += 1

        if (
            instruction.mnemonic == "l.nop"
            and instruction.imm == HALT_NOP_CODE
        ):
            self.halted = True
            return instruction

        # -- program counter update with delay-slot semantics ---------------
        if self._in_delay_slot:
            state.pc = self._pending_target
            self._pending_target = None
            self._in_delay_slot = False
        elif instruction.is_control and result.branch_taken:
            self._pending_target = result.branch_target
            self._in_delay_slot = True
            state.pc = pc + 4
        else:
            state.pc = pc + 4
        return instruction

    def _apply(self, instruction, result):
        state = self.state
        kind = instruction.kind
        if kind == InstructionKind.LOAD:
            raw = self.memory.load(result.mem_addr, result.mem_size)
            state.write_reg(
                instruction.rd, load_extract(instruction.mnemonic, raw)
            )
        elif kind == InstructionKind.STORE:
            self.memory.store(result.mem_addr, result.store_value,
                              result.mem_size)
        elif result.value is not None:
            state.write_reg(instruction.rd, result.value)
        if result.link_value is not None:
            state.write_reg(REG_LINK, result.link_value)
        if result.flag is not None:
            state.flag = result.flag
        if result.carry is not None:
            state.carry = result.carry

    def run(self, max_steps=DEFAULT_MAX_STEPS):
        """Run until halt; returns the number of retired instructions."""
        steps = 0
        while not self.halted:
            if steps >= max_steps:
                raise SimulationError(
                    f"exceeded {max_steps} steps without halting "
                    f"(pc={self.state.pc:#010x})"
                )
            self.step()
            steps += 1
        return steps

    def retired_trace(self):
        """The program trace L[t] as a list of Instructions."""
        return [instruction for _, instruction in self.retired]


def run_program(program, max_steps=DEFAULT_MAX_STEPS):
    """Run a program functionally; returns the halted simulator."""
    simulator = FunctionalSimulator(program)
    simulator.run(max_steps=max_steps)
    return simulator


def iss_data(program, max_cycles):
    """The :class:`~repro.sim.predecode.IssData` of one
    :class:`FunctionalSimulator` run within ``max_cycles`` steps, the
    reference for ``repro.sim.predecode.collect``.  Timing classes are
    interned in retirement order (``collect`` interns in image order), so
    compare them by name."""
    pcs, instrs, a_vals, b_vals = [], [], [], []
    takens, targets, metas = [], [], []
    store_words = set()
    class_names = []

    def observer(pc, instruction, a, b, result):
        spec = instruction.spec
        cls = instruction.timing_class
        if cls not in class_names:
            class_names.append(cls)
        dest = instruction.destination_register()
        source_mask = 0
        for register in instruction.source_registers():
            source_mask |= 1 << register
        pcs.append(pc)
        instrs.append(instruction)
        a_vals.append(a)
        b_vals.append(b if spec.reads_rb else instruction.imm & 0xFFFFFFFF)
        takens.append(bool(result.branch_taken))
        targets.append(result.branch_target if result.branch_taken else 0)
        metas.append((
            class_names.index(cls), KIND_CODE[spec.kind],
            -1 if dest is None else dest, source_mask,
            MNEMONIC_ID[instruction.mnemonic],
        ))
        if spec.kind == InstructionKind.STORE:
            first = result.mem_addr & ~3
            last = (result.mem_addr + result.mem_size - 1) & ~3
            store_words.update((first, last))

    simulator = FunctionalSimulator(program, observer=observer)
    steps = 0
    while not simulator.halted:
        if steps >= max_cycles:
            raise SimulationError(
                f"exceeded {max_cycles} cycles without halting "
                f"(pc={simulator.state.pc:#010x})"
            )
        simulator.step()
        steps += 1
    meta = np.array(metas, dtype=np.int64)
    # the observed stream is the simulator's own retired list
    if list(zip(pcs, instrs)) != simulator.retired:
        raise AssertionError("observer missed a retired instruction")
    return _pd.IssData(
        state=simulator.state,
        memory=simulator.memory,
        pcs=np.array(pcs, dtype=np.int64),
        a_vals=np.array(a_vals, dtype=np.uint64),
        b_vals=np.array(b_vals, dtype=np.uint64),
        taken=np.array(takens, dtype=bool),
        targets=np.array(targets, dtype=np.int64),
        cls=meta[:, 0],
        kind=meta[:, 1],
        dest=meta[:, 2],
        src=meta[:, 3],
        mnem=meta[:, 4].astype(_pd.MNEMONIC_DTYPE),
        store_words=store_words,
        class_names=class_names,
        image=None,
        index=np.arange(len(instrs), dtype=np.int64),
        pool=instrs,
    )


# -- the cycle-stepping pipeline ---------------------------------------------


@dataclass
class _Slot:
    """One pipeline-register slot (mutable working state)."""

    instruction: object = None   # Instruction or None for a bubble
    pc: int = None
    seq: int = None
    a: int = None                # EX operand values
    b: int = None
    result: object = None        # ComputeResult, filled in EX
    ex_remaining: int = -1       # -1 -> multi-cycle EX op not started
    held: bool = False

    @property
    def is_bubble(self):
        return self.instruction is None

    def view(self):
        if self.instruction is None:
            return BUBBLE_VIEW
        return StageView(
            mnemonic=self.instruction.mnemonic,
            timing_class=self.instruction.timing_class,
            pc=self.pc,
            seq=self.seq,
            held=self.held,
        )


def _bubble():
    return _Slot()


class PipelineSimulator:
    """The cycle-stepping reference pipeline: one :meth:`step` per clock,
    producing a :class:`PipelineTrace` record by record.

    This is the reference semantics of every
    :class:`~repro.sim.spec.PipelineSpec` (stage geometry, forwarding,
    load-use penalty, mul/div latencies, delay-slot squash, post-halt
    drain); :func:`repro.sim.vector.simulate` reconstructs the same trace
    from one ISS pass and is held bit-identical to this class.

    Parameters
    ----------
    program:
        Assembled :class:`~repro.asm.program.Program`.
    div_latency:
        EX occupancy of serial divides, in cycles (>= 1); defaults to the
        spec's divider latency.
    memory:
        Optional pre-initialised memory (defaults to the program image).
    spec:
        :class:`~repro.sim.spec.PipelineSpec`, preset name, or ``None``
        for the default six-stage machine.
    """

    def __init__(self, program, div_latency=None, memory=None, spec=None):
        spec = get_pipeline_spec(spec)
        if div_latency is None:
            div_latency = spec.div_latency
        if div_latency < 1:
            raise ValueError("div_latency must be at least 1 cycle")
        self.program = program
        self.spec = spec
        self.memory = memory if memory is not None else Memory("mem")
        if memory is None:
            program.load_into(self.memory)
        self.state = ArchState(entry=program.entry)
        self.div_latency = div_latency
        self.halted = False
        self.cycle = 0
        self.trace = PipelineTrace(program_name=program.name)

        self._fetch_pc = program.entry
        self._num_stages = spec.num_stages
        self._ex = spec.ex_index          # EX column == first back boundary
        self._nf = spec.num_front
        self._forwarding = spec.forwarding
        self._load_use_penalty = spec.load_use_penalty
        self._mul_latency = spec.mul_latency
        self._slots = [_bubble() for _ in range(self._num_stages)]
        self._seq = 0
        self._halt_in_flight = False
        self._draining = False        # halt has executed; EX is inert
        self._decode_cache = {}
        self._in_delay_slot = False   # next EX instruction is a delay slot

    # ------------------------------------------------------------------ fetch

    def _decode_at(self, address, word):
        cached = self._decode_cache.get(address)
        if cached is not None:
            return cached
        if address in self.program.instructions:
            instruction = self.program.instructions[address]
        else:
            instruction = decode(word)   # may raise EncodingError
        self._decode_cache[address] = instruction
        return instruction

    def _fetch_slot(self):
        """Create the ADR-stage slot for the current fetch address."""
        address = self._fetch_pc
        if address % 4:
            raise SimulationError(f"misaligned fetch at {address:#010x}")
        word = self.memory.load_word(address)
        slot = _Slot(pc=address, seq=self._seq)
        self._seq += 1
        try:
            slot.instruction = self._decode_at(address, word)
        except EncodingError as err:
            if not self._halt_in_flight:
                raise SimulationError(
                    f"cannot decode fetched word {word:#010x} at "
                    f"{address:#010x}: {err}"
                ) from err
            # Wrong-path fetch beyond the halt: treat as a bubble.
            slot.instruction = None
        else:
            if (
                slot.instruction.mnemonic == "l.nop"
                and slot.instruction.imm == HALT_NOP_CODE
            ):
                self._halt_in_flight = True
        self._fetch_pc = address + 4
        return slot

    # ------------------------------------------------------------------ step

    def _ex_latency(self, instruction):
        """EX residency of one instruction under this spec."""
        kind = instruction.kind
        if kind == InstructionKind.DIV:
            return self.div_latency
        if kind == InstructionKind.MUL:
            return self._mul_latency
        return 1

    def step(self):
        """Advance the pipeline by one clock cycle; returns the CycleRecord."""
        if self.halted:
            raise SimulationError("pipeline is halted")
        slots = self._slots
        ex = self._ex
        last = self._num_stages - 1
        for slot in slots:
            slot.held = False

        # -- stall conditions, evaluated on the current (pre-advance) state
        ex_slot = slots[ex]
        ex_busy = (
            ex_slot.instruction is not None
            and ex_slot.ex_remaining != 0
            and self._ex_latency(ex_slot.instruction) > 1
        )
        interlock = not ex_busy and self._hazard_interlock()
        front_stall = ex_busy or interlock

        # -- advance pipeline registers (oldest first)
        for index in range(last, ex + 1, -1):
            slots[index] = slots[index - 1]
        if ex_busy:
            slots[ex + 1] = _bubble()
            slots[ex].held = True
        else:
            slots[ex + 1] = slots[ex]
            if interlock:
                slots[ex] = _bubble()
            else:
                for index in range(ex, 0, -1):
                    slots[index] = slots[index - 1]
                slots[0] = None   # filled after EX processing
        if front_stall:
            for index in range(self._nf):
                slots[index].held = True

        # -- stage actions, oldest to youngest
        self._process_ctrl(slots[ex + 1])
        redirect = self._process_ex(slots[ex])

        # -- fill the address stage (sees this cycle's redirect)
        if slots[0] is None:
            slots[0] = self._fetch_slot()

        # -- record the cycle
        ex_now = slots[ex]
        record = CycleRecord(
            cycle=self.cycle,
            slots=tuple(slot.view() for slot in slots),
            ex_operands=(
                (ex_now.a, ex_now.b) if ex_now.instruction is not None
                else None
            ),
            redirect=redirect,
            stall=front_stall,
        )
        self.trace.append(record)
        self.cycle += 1

        # -- retire the writeback-stage instruction at the end of its cycle
        self._retire(slots[last])
        slots[last] = _bubble()
        return record

    def _hazard_interlock(self):
        """Front-end interlock, evaluated on the pre-advance state.

        Forwarding machines stall only on load-use: walking the producer
        window youngest-first (EX onward, ``load_use_penalty`` stages
        deep), the first in-flight producer of one of the consumer's
        source registers decides — a load stalls the consumer, anything
        younger than the load has already forwarded past it.

        Non-forwarding machines stall while *any* producer of a consumer
        source occupies EX..the stage before write-back (write-through
        register file: a value is readable the cycle its producer sits in
        the final stage).  Squashed and drained slots are bubbles /
        inert instructions respectively, but drained producers still
        interlock — the hazard logic keys on stage contents, not on
        architectural liveness.
        """
        consumer = self._slots[self._nf - 1].instruction
        if consumer is None:
            return False
        sources = consumer.source_registers()
        if not sources:
            return False
        ex = self._ex
        if self._forwarding:
            decided = set()
            for index in range(ex, min(ex + self._load_use_penalty,
                                       self._num_stages - 1)):
                producer = self._slots[index].instruction
                if producer is None:
                    continue
                dest = producer.destination_register()
                if dest is None or dest == 0 or dest in decided:
                    continue
                if dest in sources and (
                    producer.kind == InstructionKind.LOAD
                ):
                    return True
                decided.add(dest)
            return False
        for index in range(ex, self._num_stages - 1):
            producer = self._slots[index].instruction
            if producer is None:
                continue
            dest = producer.destination_register()
            if dest is not None and dest != 0 and dest in sources:
                return True
        return False

    def _process_ex(self, slot):
        """Execute-stage actions; returns True if fetch was redirected."""
        instruction = slot.instruction
        if instruction is None:
            return False
        if self._draining:
            # instructions younger than the halt never commit; they drain
            # through the back of the pipeline without architectural effect
            return False
        state = self.state

        if self._ex_latency(instruction) > 1:
            if slot.ex_remaining < 0:
                # first EX cycle of a multi-cycle op: read operands, start
                # counting down
                slot.a = state.read_reg(instruction.ra)
                rb_value = state.read_reg(instruction.rb)
                slot.result = compute(
                    instruction, slot.a, rb_value, state.flag, state.carry,
                    slot.pc,
                )
                if instruction.spec.reads_rb:
                    slot.b = rb_value
                else:
                    slot.b = instruction.imm & 0xFFFFFFFF
                slot.ex_remaining = self._ex_latency(instruction) - 1
            else:
                slot.ex_remaining -= 1
            if slot.ex_remaining == 0:
                # multi-cycle EX ops (mul/div) write only rd
                state.write_reg(instruction.rd, slot.result.value)
            self._consume_delay_slot_marker(instruction, slot)
            return False

        slot.a = state.read_reg(instruction.ra)
        rb_value = state.read_reg(instruction.rb)
        result = compute(
            instruction, slot.a, rb_value, state.flag, state.carry, slot.pc
        )
        slot.result = result
        # the recorded b operand is the *effective* datapath input: the
        # operand mux selects the immediate for immediate forms, and that
        # is what drives the excitation model
        if instruction.spec.reads_rb:
            slot.b = rb_value
        else:
            slot.b = instruction.imm & 0xFFFFFFFF

        if (
            instruction.mnemonic == "l.nop"
            and instruction.imm == HALT_NOP_CODE
        ):
            self._draining = True
        if (
            result.value is not None
            and instruction.kind != InstructionKind.LOAD
        ):
            state.write_reg(instruction.rd, result.value)
        if result.link_value is not None:
            state.write_reg(REG_LINK, result.link_value)
        if result.flag is not None:
            state.flag = result.flag
        if result.carry is not None:
            state.carry = result.carry

        if instruction.is_control:
            if self._in_delay_slot:
                raise SimulationError(
                    f"control transfer in delay slot at {slot.pc:#010x}"
                )
            if result.branch_taken:
                # Redirect: the target address is presented to the
                # instruction memory within this cycle; squash the
                # wrong-path words behind the delay slot (every front
                # slot between ADR and the consumer).  The delay slot
                # itself proceeds.
                self._fetch_pc = result.branch_target
                for index in range(1, self._nf - 1):
                    self._slots[index] = _bubble()
                self._in_delay_slot = True
                return True
            return False
        self._consume_delay_slot_marker(instruction, slot)
        return False

    def _consume_delay_slot_marker(self, instruction, slot):
        if self._in_delay_slot and slot.ex_remaining <= 0:
            self._in_delay_slot = False

    def _process_ctrl(self, slot):
        instruction = slot.instruction
        if instruction is None or slot.result is None:
            return
        result = slot.result
        if instruction.kind == InstructionKind.LOAD:
            raw = self.memory.load(result.mem_addr, result.mem_size)
            self.state.write_reg(
                instruction.rd, load_extract(instruction.mnemonic, raw)
            )
        elif instruction.kind == InstructionKind.STORE:
            self.memory.store(result.mem_addr, result.store_value,
                              result.mem_size)

    def _retire(self, slot):
        if slot.instruction is None:
            return
        self.trace.retired.append((slot.pc, slot.instruction))
        self.state.instret += 1
        if (
            slot.instruction.mnemonic == "l.nop"
            and slot.instruction.imm == HALT_NOP_CODE
        ):
            self.halted = True

    # ------------------------------------------------------------------ run

    def run(self, max_cycles=vector.DEFAULT_MAX_CYCLES):
        """Run to the halt instruction; returns the trace."""
        while not self.halted:
            if self.cycle >= max_cycles:
                raise SimulationError(
                    f"exceeded {max_cycles} cycles without halting "
                    f"(pc={self._fetch_pc:#010x})"
                )
            self.step()
        return self.trace


# -- the scalar clock decision ------------------------------------------------
#
# The reference for the array protocol of ``repro.clocking``: one policy
# request per cycle record and one generator grant per period.  Dispatched
# on the registry classes; a policy or generator defined elsewhere (a test
# double) answers through its own ``period_for`` / ``quantize_up``.


def attribute_cycle(record):
    """Driver timing class of every stage group in one cycle."""
    classes = {}
    for stage in Stage:
        view = driver_view(record, stage)
        classes[stage] = (
            view.timing_class if view.timing_class is not None
            else BUBBLE_CLASS
        )
    return classes


def cycle_max(excitation, record):
    """The genie-aided minimum safe period for one cycle (Eq. 2 with
    perfect knowledge): the max excited delay across all groups."""
    return max(
        excitation.group_delay(record, stage).delay_ps for stage in Stage
    )


class OnlineFeatureExtractor:
    """Scalar (per-record) feature extraction with shift-register state.

    Produces rows bit-identical to ``repro.ml.features.extract_features``
    when fed the same trace record by record — the reference semantics of
    a learned policy's hardware monitor.  Stateful: the recent-window
    counters see only cycles already presented, so build one extractor
    per program.

    Record-path extraction assumes the default six-slot record layout
    (non-default pipeline specs evaluate through the vector engine,
    which :class:`repro.api.Session` enforces).
    """

    def __init__(self, vocabulary=None, window=DEFAULT_WINDOW):
        if vocabulary is None:
            vocabulary = class_vocabulary()
        self.vocabulary = tuple(vocabulary)
        self.window = _validate_window(window)
        self._index = {cls: i for i, cls in enumerate(self.vocabulary)}
        self._groups = group_ids(self.vocabulary)
        self._muldiv_history = []
        self._redirect_history = []

    def features_for(self, record):
        """The feature row of one cycle record (float64 vector)."""
        slots = record.slots
        ex_view = slots[int(Stage.EX)]
        ids = np.empty(len(Stage), dtype=np.int64)
        bubble = np.empty(len(Stage), dtype=bool)
        held = np.empty(len(Stage), dtype=bool)
        for stage in Stage:
            # same driver substitution as compile_trace: the ADR group
            # keys on the EX occupant
            view = ex_view if stage == Stage.ADR else slots[int(stage)]
            cls = view.timing_class
            if cls is None:
                cls = BUBBLE_CLASS
            try:
                ids[stage] = self._index[cls]
            except KeyError:
                raise ValueError(
                    f"timing class {cls!r} not in the model vocabulary"
                ) from None
            bubble[stage] = view.mnemonic is None
            held[stage] = view.held

        groups = self._groups[ids]
        window = self.window
        row = np.empty(NUM_FEATURES, dtype=np.float64)
        row[0:len(Stage)] = ids
        row[len(Stage):2 * len(Stage)] = groups
        base = 2 * len(Stage)
        for stage in Stage:
            row[base + 2 * int(stage)] = bubble[stage]
            row[base + 2 * int(stage) + 1] = held[stage]
        base += 2 * len(Stage)
        row[base] = bool(record.stall)
        row[base + 1] = bool(record.redirect)
        row[base + 2] = float(sum(self._muldiv_history[-window:]))
        row[base + 3] = float(sum(self._redirect_history[-window:]))

        ex_muldiv = (
            groups[Stage.EX] == _MULDIV_GROUP_ID and not bubble[Stage.EX]
        )
        self._muldiv_history.append(1 if ex_muldiv else 0)
        self._redirect_history.append(1 if record.redirect else 0)
        if len(self._muldiv_history) > window:
            del self._muldiv_history[:-window]
            del self._redirect_history[:-window]
        return row


#: A learned policy's per-record extractor: its shift-register state
#: lives as long as the policy, as the monitor's would.
_EXTRACTORS = weakref.WeakKeyDictionary()


def period_for(policy, record):
    """The period ``policy`` requests for one cycle record."""
    if isinstance(policy, StaticClockPolicy):
        return policy.period_ps
    if isinstance(policy, InstructionLutPolicy):
        classes = attribute_cycle(record)
        return max(
            policy.lut.entry(classes[stage], stage) for stage in Stage
        )
    if isinstance(policy, ExOnlyLutPolicy):
        ex_cls = attribute_cycle(record)[Stage.EX]
        return max(
            policy.lut.entry(ex_cls, Stage.EX),
            policy.lut.entry(ex_cls, Stage.ADR),
            policy.floor_ps,
        )
    if isinstance(policy, TwoClassPolicy):
        classes = attribute_cycle(record)
        if any(policy._is_slow(classes[stage]) for stage in Stage):
            return policy.slow_period_ps
        return policy.fast_period_ps
    if isinstance(policy, LearnedPolicy):
        extractor = _EXTRACTORS.get(policy)
        if extractor is None:
            extractor = _EXTRACTORS[policy] = OnlineFeatureExtractor(
                vocabulary=policy.model.vocabulary,
                window=policy.model.window,
            )
        row = extractor.features_for(record)
        normalized = policy.model.predict_normalized(row)[0]
        return float(normalized) * policy.static_period_ps
    if isinstance(policy, GeniePolicy):
        return cycle_max(policy.excitation, record)
    return policy.period_for(record)


def check_period(period_ps):
    """``period_ps`` if it is finite and positive, else
    :class:`ClockGeneratorError`."""
    if not 0 < period_ps < math.inf:
        raise ClockGeneratorError(f"invalid period {period_ps}")
    return period_ps


def quantize_up(generator, period_ps):
    """The period ``generator`` grants for one request (``None`` is the
    ideal generator)."""
    if generator is None or isinstance(generator, IdealClockGenerator):
        return check_period(period_ps)
    if isinstance(generator, TunableRingOscillator):
        check_period(period_ps)
        clamped = max(period_ps, generator.min_period_ps)
        steps = math.ceil(
            (clamped - generator.min_period_ps) / generator.step_ps - 1e-9
        )
        granted = generator.min_period_ps + steps * generator.step_ps
        if granted > generator.max_period_ps + 1e-9:
            raise ClockGeneratorError(
                f"period {period_ps:.1f} ps exceeds the oscillator range "
                f"(max {generator.max_period_ps:.1f} ps)"
            )
        return granted
    if isinstance(generator, MultiPLLClockGenerator):
        check_period(period_ps)
        for period in generator.available_periods():
            if period + 1e-9 >= period_ps:
                return period
        raise ClockGeneratorError(
            f"period {period_ps:.1f} ps exceeds the slowest PLL "
            f"({generator.available_periods()[-1]:.1f} ps)"
        )
    return generator.quantize_up(period_ps)


def decide(policy, record, generator=None, margin_percent=0.0):
    """One cycle's granted period: the policy's request scaled by the
    margin, then quantised by the generator."""
    return quantize_up(
        generator,
        period_for(policy, record) * (1.0 + margin_percent / 100.0),
    )


# -- record-path evaluation ------------------------------------------------------


def evaluate_program(program, design, policy, generator=None,
                     margin_percent=0.0, check_safety=True,
                     max_cycles=DEFAULT_MAX_CYCLES):
    """Run one program under one clock policy, record by record.

    The safety replay is spec-aware (one excitation sample per spec
    column); record-path *policies* assume the default six-slot layout,
    so non-default specs pair this loop with layout-independent policies
    (e.g. static).
    """
    spec = design.pipeline_spec
    simulator = PipelineSimulator(program, spec=spec)
    trace = simulator.run(max_cycles=max_cycles)

    excitation = design.excitation
    periods = []
    violations = []
    for record in trace.records:
        period = decide(policy, record, generator, margin_percent)
        periods.append(period)
        if check_safety:
            for column in range(spec.num_stages):
                excited = excitation.column_delay(record, column, spec)
                if excited.delay_ps > period + VIOLATION_TOLERANCE_PS:
                    violations.append(
                        TimingViolation(
                            cycle=record.cycle,
                            stage=spec.stage_label(column),
                            applied_period_ps=period,
                            excited_delay_ps=excited.delay_ps,
                            driver_class=excited.driver_class,
                        )
                    )

    stats = ControllerStats.from_periods(periods)
    return EvaluationResult(
        program_name=program.name,
        policy_name=getattr(policy, "name", type(policy).__name__),
        num_cycles=trace.num_cycles,
        num_retired=trace.num_retired,
        total_time_ps=stats.total_time_ps,
        static_period_ps=design.static_period_ps,
        min_period_ps=stats.min_period_ps,
        max_period_ps=stats.max_period_ps,
        switch_rate=stats.switch_rate,
        violations=violations,
    )


def evaluate_grid(programs, design, configs, max_cycles=DEFAULT_MAX_CYCLES):
    """:func:`evaluate_program` over every ``SweepConfig`` × program, as
    the ``[config][program]`` grid ``Session.evaluate_results`` returns:
    a fresh policy per program, and one generator per config granting
    every program's periods in program order, as the batch engine."""
    grid = []
    for config in configs:
        generator = config.make_generator()
        grid.append([
            evaluate_program(
                program, design, config.make_policy(),
                generator=generator,
                margin_percent=config.margin_percent,
                check_safety=config.check_safety,
                max_cycles=max_cycles,
            )
            for program in programs
        ])
    return grid


def evaluate_with_drift(program, design, lut, environment, scheme="online",
                        update_interval=150, tracking_margin=0.025,
                        max_cycles=DEFAULT_MAX_CYCLES):
    """Drift-aware evaluation, one pipeline record at a time (default
    pipeline layout)."""
    _check_scheme(scheme)
    simulator = PipelineSimulator(program)
    trace = simulator.run(max_cycles=max_cycles)
    policy = InstructionLutPolicy(lut)
    excitation = design.excitation

    if scheme == "fixed-guard":
        static_scale = environment.max_drift(trace.num_cycles)
    else:
        static_scale = 1.0

    result = AdaptiveEvaluationResult(
        program_name=program.name,
        scheme=scheme,
        num_cycles=trace.num_cycles,
        total_time_ps=0.0,
    )

    periods = []
    online_scale = 1.0 + tracking_margin
    for record in trace.records:
        drift = environment.drift(record.cycle)
        result.max_drift_seen = max(result.max_drift_seen, drift)

        if scheme == "online" and record.cycle % update_interval == 0:
            measured = _monitor_measurement(drift)
            online_scale = measured + tracking_margin
            result.lut_updates += 1

        predicted = period_for(policy, record)
        if scheme == "online":
            period = predicted * online_scale
        else:
            period = predicted * static_scale
        periods.append(period)

        # ground truth: every excited delay is stretched by the drift
        for stage in Stage:
            excited = excitation.group_delay(record, stage)
            if excited.delay_ps * drift > period + VIOLATION_TOLERANCE_PS:
                result.violations += 1
    return _finish(result, periods)


def evaluate_overscaling(program, design, lut, overscale_factor,
                         max_cycles=2_000_000):
    """Over-scaling scan, one pipeline record at a time (default
    pipeline layout)."""
    if not 0.0 < overscale_factor <= 1.0:
        raise ValueError("overscale_factor must be in (0, 1]")

    simulator = PipelineSimulator(program)
    trace = simulator.run(max_cycles=max_cycles)
    policy = InstructionLutPolicy(lut)
    excitation = design.excitation

    report = OverscalingReport(
        program_name=program.name,
        overscale_factor=overscale_factor,
        num_cycles=trace.num_cycles,
        total_time_ps=0.0,
    )
    for record in trace.records:
        period = period_for(policy, record) * overscale_factor
        report.total_time_ps += period
        cycle_violated = False
        for stage in Stage:
            excited = excitation.group_delay(record, stage)
            overshoot = excited.delay_ps - period
            if overshoot <= 1e-9:
                continue
            cycle_violated = True
            report.violations_by_stage[stage.name] = (
                report.violations_by_stage.get(stage.name, 0) + 1
            )
            report.violations_by_class[excited.driver_class] = (
                report.violations_by_class.get(excited.driver_class, 0) + 1
            )
            if stage == Stage.EX and record.ex_operands is not None:
                view = record.view(Stage.EX)
                spec = design.profile.ex_spec(view.timing_class)
                bits = error_magnitude_bits(overshoot, spec.spread_ps)
                a, b = record.ex_operands
                exact = (a * b) & 0xFFFFFFFF   # representative result
                report.approx_results.append(
                    ApproximateResult(
                        cycle=record.cycle,
                        mnemonic=view.mnemonic,
                        exact_value=exact,
                        approx_value=approximate_value(
                            exact, bits, salt=record.cycle
                        ),
                        corrupted_bits=bits,
                    )
                )
        if cycle_violated:
            report.violation_cycles += 1
    return report


# -- event-log characterisation ---------------------------------------------


@dataclass(frozen=True)
class EndpointEvent:
    """Last data-input event and next clock edge of one endpoint, one
    cycle; times are absolute picoseconds from simulation start."""

    cycle: int
    endpoint: str
    t_data_ps: float
    t_clock_ps: float


@dataclass
class EventLog:
    """The endpoint event log between gate-level simulation and the DTA.

    The paper's gate-level simulation monitors the data and clock inputs
    of every flip-flop and memory macro; the DTA relates, per cycle and
    per endpoint, the last data event to the next active clock edge at
    that same endpoint (so clock skew cancels per endpoint).  The log
    stores absolute timestamps, and :func:`analyze_event_log` recovers
    delays without access to the timing model that produced them.
    """

    sim_period_ps: float                     # "low" gate-sim clock period
    num_cycles: int = 0
    events: list = field(default_factory=list)
    #: endpoint name -> (stage name, setup_ps); from the netlist/SDF.
    endpoint_meta: dict = field(default_factory=dict)

    def add(self, event):
        self.events.append(event)

    def register_endpoint(self, name, stage_name, setup_ps):
        self.endpoint_meta[name] = (stage_name, setup_ps)

    @property
    def num_events(self):
        return len(self.events)

    def endpoint_stage(self, name):
        return self.endpoint_meta[name][0]

    def endpoint_setup(self, name):
        return self.endpoint_meta[name][1]

    def validate(self):
        """Every event's endpoint registered, times ordered."""
        for event in self.events:
            if event.endpoint not in self.endpoint_meta:
                raise ValueError(
                    f"event references unregistered endpoint "
                    f"{event.endpoint!r}"
                )
            if event.t_clock_ps < event.t_data_ps:
                raise ValueError(
                    f"endpoint {event.endpoint!r} cycle {event.cycle}: "
                    f"clock edge before data event (timing violation in "
                    f"the characterisation run — sim period too fast)"
                )
        return True


@dataclass
class GateSimResult:
    """Event log and pipeline trace of one characterisation run."""

    program_name: str
    event_log: EventLog
    trace: object                    # PipelineTrace
    design: object                   # ProcessorDesign
    num_cycles: int

    @property
    def pc_trace(self):
        """Program-counter trace of retired instructions (paper's .das
        input)."""
        return [pc for pc, _ in self.trace.retired]


def run_gatesim(program, design, sim_period_ps=None):
    """Gate-level simulation that emits the endpoint event log.

    One endpoint set per canonical stage group, so this models the
    default six-stage machine only.  Every record's excited group delay
    lands on the group's representative endpoints (the worst one carries
    it, the others trail at fixed fractions) as 3-decimal data/clock
    timestamps.
    """
    spec = design.pipeline_spec
    if not spec.is_default:
        raise ValueError(
            "event-log characterisation supports the default pipeline "
            f"spec only, not {spec.name!r}"
        )
    period = _sim_period(design, sim_period_ps)
    trace = vector.simulate(program, max_cycles=MAX_CYCLES).trace

    log = EventLog(sim_period_ps=period)
    endpoints_by_stage = {}
    for stage in Stage:
        endpoints_by_stage[stage] = design.netlist.endpoints_for(stage)
        for endpoint in endpoints_by_stage[stage]:
            log.register_endpoint(endpoint.name, stage.name,
                                  endpoint.setup_ps)

    excitation = design.excitation
    for record in trace.records:
        t0 = record.cycle * period
        for stage in Stage:
            excited = excitation.group_delay(record, stage)
            for endpoint, fraction in zip(
                endpoints_by_stage[stage], _TRAILING_FRACTIONS
            ):
                delay = excited.delay_ps * fraction
                # data must arrive `setup` before the (skewed) edge for a
                # path of this delay: D = arrival - t0 + setup - skew
                t_data = t0 + delay - endpoint.setup_ps + endpoint.skew_ps
                t_clock = t0 + period + endpoint.skew_ps
                log.add(EndpointEvent(
                    cycle=record.cycle,
                    endpoint=endpoint.name,
                    t_data_ps=round(t_data, 3),
                    t_clock_ps=round(t_clock, 3),
                ))
    log.num_cycles = trace.num_cycles
    return GateSimResult(
        program_name=program.name,
        event_log=log,
        trace=trace,
        design=design,
        num_cycles=trace.num_cycles,
    )


def analyze_event_log(event_log):
    """The DTA tool over an event log (the paper's Perl DTA): per-event
    slack recovery, per-stage-group max per cycle, genie reduction.

    The grouping of endpoints into pipeline stages comes from the event
    log's endpoint metadata (the paper's "pipeline specification" input).
    """
    event_log.validate()
    num_cycles = event_log.num_cycles
    if num_cycles <= 0:
        raise ValueError("event log contains no cycles")

    period = event_log.sim_period_ps
    stage_delays = {
        stage: np.zeros(num_cycles, dtype=float) for stage in Stage
    }
    for event in event_log.events:
        setup = event_log.endpoint_setup(event.endpoint)
        stage = Stage[event_log.endpoint_stage(event.endpoint)]
        # slack observed at the endpoint; skew cancels because both
        # timestamps are taken at the same element
        slack = event.t_clock_ps - event.t_data_ps - setup
        delay = period - slack
        row = stage_delays[stage]
        if delay > row[event.cycle]:
            row[event.cycle] = delay

    matrix = np.stack([stage_delays[stage] for stage in Stage], axis=1)
    cycle_max, limiting = worst_per_cycle(matrix)
    return DtaResult(
        sim_period_ps=period,
        num_cycles=num_cycles,
        stage_delays=stage_delays,
        cycle_max=cycle_max,
        limiting_stage=limiting,
    )


def extract_lut(dta_result, trace, static_period_ps,
                min_occurrences=DEFAULT_MIN_OCCURRENCES, source=""):
    """Per-record LUT extraction: every stage delay of every record goes
    to the :func:`attribute_cycle` class of its driver; per-class maxima
    become the entries, EX occurrence counts the characterised set."""
    if dta_result.num_cycles != trace.num_cycles:
        raise ValueError(
            f"DTA covers {dta_result.num_cycles} cycles but the trace has "
            f"{trace.num_cycles}"
        )

    entries = {}
    ex_counts = {}
    for record in trace.records:
        classes = attribute_cycle(record)
        for stage in Stage:
            cls = classes[stage]
            delay = float(dta_result.stage_delays[stage][record.cycle])
            row = entries.setdefault(cls, {})
            if delay > row.get(stage, 0.0):
                row[stage] = delay
        ex_cls = classes[Stage.EX]
        ex_counts[ex_cls] = ex_counts.get(ex_cls, 0) + 1

    characterized = {
        cls for cls, count in ex_counts.items() if count >= min_occurrences
    }
    # bubbles are ubiquitous; they are characterised whenever seen at all
    if BUBBLE_CLASS in ex_counts:
        characterized.add(BUBBLE_CLASS)
    # complete rows: a class must have an entry for every stage group
    for row in entries.values():
        for stage in Stage:
            row.setdefault(stage, static_period_ps)

    return DelayLUT(
        static_period_ps=static_period_ps,
        entries=entries,
        occurrences=ex_counts,
        characterized=characterized,
        min_occurrences=min_occurrences,
        source=source,
    )


def class_stage_delays(dta_result, trace, timing_class):
    """Per-record Fig. 7 attribution: every cycle in which
    ``timing_class`` drives a stage group adds that group's measured
    delay to the group's sample list."""
    samples = {stage: [] for stage in Stage}
    for record in trace.records:
        classes = attribute_cycle(record)
        for stage in Stage:
            if classes[stage] == timing_class:
                samples[stage].append(
                    float(dta_result.stage_delays[stage][record.cycle])
                )
    return samples


def characterize(design, programs=None,
                 min_occurrences=DEFAULT_MIN_OCCURRENCES,
                 sim_period_ps=None):
    """Event-log characterisation: gate-level simulation, per-event DTA,
    per-record extraction, canonical suite-order merge (default pipeline
    layout)."""
    if programs is None:
        programs = characterization_suite()
    programs = list(programs)
    luts = []
    total_cycles = 0
    for program in programs:
        result = run_gatesim(program, design, sim_period_ps=sim_period_ps)
        dta = analyze_event_log(result.event_log)
        luts.append(extract_lut(
            dta, result.trace, design.static_period_ps,
            min_occurrences=min_occurrences, source=program.name,
        ))
        total_cycles += result.num_cycles
    merged = merge_luts(luts)
    merged.source = f"{len(programs)} programs / {total_cycles} cycles"
    return CharacterizationResult(
        design=design, lut=merged, total_cycles=total_cycles
    )


#: Fields an ``EvaluationResult`` shares with an ``EVALUATION_SCHEMA`` row.
_RESULT_FIELDS = (
    "num_cycles", "num_retired", "total_time_ps", "static_period_ps",
    "min_period_ps", "max_period_ps", "switch_rate", "average_period_ps",
    "effective_frequency_mhz", "speedup_percent",
)


def _comparable(result):
    """An ``EvaluationResult`` or an evaluation row as one plain dict."""
    if isinstance(result, Mapping):
        fields = {name: result[name] for name in _RESULT_FIELDS}
        fields["program"] = result["program"]
        fields["num_violations"] = result["num_violations"]
        fields["violations"] = [tuple(v) for v in result["violations"]]
        return fields
    fields = {name: getattr(result, name) for name in _RESULT_FIELDS}
    fields["program"] = result.program_name
    fields["policy"] = result.policy_name
    fields["num_violations"] = len(result.violations)
    fields["violations"] = [
        (v.cycle, v.stage.name, v.applied_period_ps, v.excited_delay_ps,
         v.driver_class)
        for v in result.violations
    ]
    return fields


def assert_results_identical(expected, actual):
    """Bitwise (``==``, no tolerance) comparison of two evaluation
    outcomes, each an ``EvaluationResult`` or an ``EVALUATION_SCHEMA``
    row; the policy label is compared only between two results (rows
    carry the config-spec policy name)."""
    expected = _comparable(expected)
    actual = _comparable(actual)
    for name in expected.keys() & actual.keys():
        assert expected[name] == actual[name], (
            f"{expected['program']}: {name} differs: "
            f"{expected[name]!r} != {actual[name]!r}"
        )


# -- the per-instruction decode -----------------------------------------------

_MASK = 0xFFFFFFFF


def _encode_slot(pc, instruction, spec):
    """Canonical micro-op ``(op, rd, ra, rb, aux, aux2, bmask, is_ctrl)``
    of one instruction, or ``None`` for a mnemonic outside the dispatch
    table (see ``repro.sim.predecode`` for the field meanings)."""
    mnemonic = instruction.mnemonic
    kind = spec.kind
    rd, ra, rb, imm = instruction.rd, instruction.ra, instruction.rb, \
        instruction.imm
    aux = 0
    aux2 = 0
    if kind == InstructionKind.NOP:
        op = _pd.OP_HALT if imm == HALT_NOP_CODE else _pd.OP_NOP
    elif kind == InstructionKind.ALU:
        if mnemonic == "l.addi":
            op, aux = _pd.OP_ADDI, imm & _MASK
        elif mnemonic == "l.andi":
            op, aux = _pd.OP_ANDI, imm & 0xFFFF
        elif mnemonic == "l.ori":
            op, aux = _pd.OP_ORI, imm & 0xFFFF
        elif mnemonic == "l.xori":
            op, aux = _pd.OP_XORI, sign_extend(imm, 16) & _MASK
        else:
            op = _pd._ALU_OPS.get(mnemonic)
            if op is None:
                return None
    elif kind == InstructionKind.SHIFT:
        op = _pd._SHIFT_OPS.get(mnemonic)
        if op is None:
            return None
        if mnemonic.endswith("i"):
            aux = imm & 0x1F
    elif kind == InstructionKind.MUL:
        if mnemonic == "l.muli":
            op, aux = _pd.OP_MULI, imm & _MASK
        else:
            op = _pd.OP_MUL
    elif kind == InstructionKind.DIV:
        op = _pd.OP_DIV if mnemonic == "l.div" else _pd.OP_DIVU
    elif kind == InstructionKind.MOVE:
        if mnemonic == "l.movhi":
            op, aux = _pd.OP_MOVHI, ((imm & 0xFFFF) << 16) & _MASK
        else:
            op = _pd._MOVE_OPS.get(mnemonic)
            if op is None:
                return None
    elif kind == InstructionKind.SETFLAG:
        base = mnemonic.replace("l.sf", "")
        immediate = spec.fmt.name == "SETFLAG_IMM"
        if immediate and base.endswith("i"):
            base = base[:-1]
        signed = base.endswith("s") or base in ("eq", "ne")
        cond = _pd._SF_CONDS.get(
            base if base in ("eq", "ne") else base[:-1]
        )
        if cond is None:
            return None
        aux = cond | (8 if signed else 0)
        if immediate:
            op = _pd.OP_SFI
            aux2 = to_signed32(imm) if signed else imm & _MASK
        else:
            op = _pd.OP_SF
    elif kind == InstructionKind.LOAD:
        op = _pd._LOAD_OPS.get(mnemonic)
        if op is None:
            return None
        aux = imm
    elif kind == InstructionKind.STORE:
        op = _pd._STORE_OPS.get(mnemonic)
        if op is None:
            return None
        aux = imm
    elif kind == InstructionKind.JUMP:
        op = _pd.OP_JAL if mnemonic == "l.jal" else _pd.OP_J
        aux = (pc + (imm << 2)) & _MASK
        aux2 = (pc + 8) & _MASK
    elif kind == InstructionKind.JUMP_REG:
        op = _pd.OP_JALR if mnemonic == "l.jalr" else _pd.OP_JR
        aux2 = (pc + 8) & _MASK
    elif kind == InstructionKind.BRANCH:
        op = _pd.OP_BF if mnemonic == "l.bf" else _pd.OP_BNF
        aux = (pc + (imm << 2)) & _MASK
    else:
        return None
    bmask = None if spec.reads_rb else imm & _MASK
    return (op, rd, ra, rb, aux, aux2, bmask, spec.is_control)


@dataclass
class ReferenceImage:
    """The fields of a decoded program image, built one instruction at a
    time; names match ``repro.sim.predecode.DecodedImage``."""

    addrs: list
    instrs: list
    slots: list
    class_names: list
    np_pc: object
    np_cls: object
    np_kind: object
    np_dest: object
    np_src: object
    np_mnem: object
    lookup: list
    sparse: dict
    memory_proto: Memory


def reference_image(program):
    """Per-instruction decode of ``program``: one spec lookup, one slot
    encoding and one metadata row per text word, and one 4-byte store
    per image word."""
    addrs = sorted(program.instructions)
    instrs = [program.instructions[address] for address in addrs]
    count = len(addrs)
    class_names = []
    intern = {}
    slots = []
    np_cls = np.full(count, -1, dtype=np.int64)
    np_kind = np.full(count, -1, dtype=np.int64)
    np_dest = np.full(count, -1, dtype=np.int64)
    np_src = np.zeros(count, dtype=np.int64)
    np_mnem = np.full(count, -1, dtype=_pd.MNEMONIC_DTYPE)
    for index, (address, instruction) in enumerate(zip(addrs, instrs)):
        spec = SPECS.get(instruction.mnemonic)
        if spec is None:
            slots.append(None)
            continue
        cls = spec.timing_class
        cls_id = intern.get(cls)
        if cls_id is None:
            cls_id = intern[cls] = len(class_names)
            class_names.append(cls)
        np_cls[index] = cls_id
        np_kind[index] = KIND_CODE[spec.kind]
        np_mnem[index] = MNEMONIC_ID[instruction.mnemonic]
        if spec.writes_rd:
            np_dest[index] = instruction.rd
        source_mask = 0
        if spec.reads_ra:
            source_mask |= 1 << instruction.ra
        if spec.reads_rb:
            source_mask |= 1 << instruction.rb
        np_src[index] = source_mask
        slots.append(_encode_slot(address, instruction, spec))
    lookup = None
    sparse = None
    if count and 0 <= addrs[0] and (addrs[-1] >> 2) < _pd._MAX_DENSE_WORDS:
        lookup = [-1] * ((addrs[-1] >> 2) + 1)
        for index, address in enumerate(addrs):
            lookup[address >> 2] = index
    else:
        sparse = dict(zip(addrs, range(count)))
    memory = Memory("dmem")
    for address, word in program.words.items():
        memory.store(address, word, 4)
    return ReferenceImage(
        addrs=addrs, instrs=instrs, slots=slots, class_names=class_names,
        np_pc=np.array(addrs, dtype=np.int64), np_cls=np_cls,
        np_kind=np_kind, np_dest=np_dest, np_src=np_src, np_mnem=np_mnem,
        lookup=lookup, sparse=sparse, memory_proto=memory,
    )


# -- the text characterisation generator ---------------------------------------
#
# repro.workloads.randomgen emits Instruction records and encodes them
# itself; this is the same generator as assembly text, the reference for
# it: same draws in the same order, labels and hi()/lo() resolved by the
# assembler.


class _TextEmitter:
    def __init__(self):
        self.lines = []
        self._label_index = 0

    def emit(self, text):
        self.lines.append(f"    {text}")

    def label(self, prefix="gl"):
        name = f"{prefix}_{self._label_index}"
        self._label_index += 1
        return name

    def place(self, name):
        self.lines.append(f"{name}:")

    def source(self):
        return "\n".join(self.lines)


def _text_prologue(out, repeats):
    out.place("start")
    out.emit(f"l.movhi r{_REG_SCRATCH_BASE}, hi(scratch)")
    out.emit(f"l.ori   r{_REG_SCRATCH_BASE}, r{_REG_SCRATCH_BASE}, lo(scratch)")
    out.emit(f"l.movhi r{_REG_HIGH_BASE}, 0xffff")
    out.emit(f"l.ori   r{_REG_HIGH_BASE}, r{_REG_HIGH_BASE}, 0xfff0")
    out.emit(f"l.movhi r{_REG_ALL_ONES}, 0xffff")
    out.emit(f"l.ori   r{_REG_ALL_ONES}, r{_REG_ALL_ONES}, 0xffff")
    out.emit(f"l.addi  r{_REG_ONE}, r0, 1")
    out.emit(f"l.addi  r{_REG_REPEAT}, r0, {repeats}")
    for index, reg in enumerate(_GP_REGS):
        out.emit(f"l.addi  r{reg}, r0, {(index * 1237 + 11) % 4000}")
    out.place("outer_loop")


def _text_epilogue(out):
    out.emit(f"l.addi  r{_REG_REPEAT}, r{_REG_REPEAT}, -1")
    out.emit(f"l.sfgtsi r{_REG_REPEAT}, 0")
    out.emit("l.bf    outer_loop")
    out.emit("l.nop")
    out.emit("l.nop   0x1")
    out.emit("l.nop")
    out.emit("l.nop")
    out.lines.append(".data")
    out.place("scratch")
    out.emit(f".space {_SCRATCH_WORDS * 4}")


def _text_idioms(out):
    """Emit one worst-case excitation per timing class (directed part).

    These idioms make the extracted LUT converge to the profile's true
    per-class worst cases (see repro.timing.excitation.is_worst_pattern).
    """
    ones = f"r{_REG_ALL_ONES}"
    high = f"r{_REG_HIGH_BASE}"
    out.emit(f"l.add   r5, {ones}, {ones}")      # full carry chain
    out.emit(f"l.addi  r6, {ones}, -1")
    out.emit(f"l.sub   r7, {ones}, {ones}")
    out.emit(f"l.and   r5, {ones}, {ones}")
    out.emit(f"l.andi  r6, {ones}, 0xffff")
    out.emit(f"l.or    r7, {ones}, {ones}")
    out.emit(f"l.xor   r5, {ones}, {ones}")
    out.emit(f"l.xori  r6, {ones}, -1")
    out.emit(f"l.sll   r7, {ones}, r{_REG_ONE}")
    out.emit(f"l.slli  r5, {ones}, 31")
    out.emit(f"l.srl   r6, {ones}, r{_REG_ONE}")
    out.emit(f"l.srli  r7, {ones}, 31")
    out.emit(f"l.sra   r5, {ones}, r{_REG_ONE}")
    out.emit(f"l.srai  r6, {ones}, 31")
    out.emit(f"l.ror   r7, {ones}, r{_REG_ONE}")
    out.emit(f"l.rori  r5, {ones}, 13")
    out.emit(f"l.mul   r6, {ones}, {ones}")      # worst multiplier operands
    out.emit(f"l.muli  r7, {ones}, -1")
    out.emit(f"l.mulu  r5, {ones}, {ones}")
    out.emit(f"l.div   r6, {ones}, r{_REG_ONE}") # longest divider sequence
    out.emit(f"l.divu  r7, {ones}, r{_REG_ONE}")
    out.emit(f"l.lwz   r5, 0({high})")           # worst-case address lines
    out.emit(f"l.lbz   r6, 1({high})")
    out.emit(f"l.lhz   r7, 2({high})")
    out.emit(f"l.sw    4({high}), {ones}")
    out.emit(f"l.sb    8({high}), {ones}")
    out.emit(f"l.sh    10({high}), {ones}")
    out.emit(f"l.sfeq  {ones}, {ones}")
    out.emit(f"l.sfgtu {ones}, {ones}")
    out.emit("l.movhi r5, 0xffff")
    out.emit(f"l.cmov  r6, {ones}, {ones}")
    out.emit(f"l.exths r7, {ones}")
    out.emit(f"l.extbz r5, {ones}")
    out.emit(f"l.ff1   r6, {ones}")
    # guaranteed-taken control transfers of every kind
    taken_bf = out.label("bf")
    out.emit("l.sfeq  r0, r0")                   # flag := 1
    out.emit(f"l.bf    {taken_bf}")
    out.emit("l.nop")
    out.place(taken_bf)
    taken_bnf = out.label("bnf")
    out.emit("l.sfne  r0, r0")                   # flag := 0
    out.emit(f"l.bnf   {taken_bnf}")
    out.emit("l.nop")
    out.place(taken_bnf)
    target_j = out.label("j")
    out.emit(f"l.j     {target_j}")
    out.emit("l.nop")
    out.place(target_j)
    target_jal = out.label("jal")
    out.emit(f"l.jal   {target_jal}")
    out.emit("l.nop")
    out.place(target_jal)
    target_jr = out.label("jr")
    out.emit(f"l.movhi r7, hi({target_jr})")
    out.emit(f"l.ori   r7, r7, lo({target_jr})")
    out.emit("l.jr    r7")
    out.emit("l.nop")
    out.place(target_jr)
    target_jalr = out.label("jalr")
    out.emit(f"l.movhi r7, hi({target_jalr})")
    out.emit(f"l.ori   r7, r7, lo({target_jalr})")
    out.emit("l.jalr  r7")
    out.emit("l.nop")
    out.place(target_jalr)


def _text_random_instruction(out, rng):
    mnemonic = rng.draw(_MIX_CHOICE)
    rd = rng.choice(_GP_REGS)
    ra = rng.choice(_SOURCE_REGS)
    rb = rng.choice(_SOURCE_REGS)

    if mnemonic in ("l.lwz", "l.sw"):
        offset = 4 * rng.integers(0, _SCRATCH_WORDS)
        if mnemonic == "l.lwz":
            out.emit(f"l.lwz   r{rd}, {offset}(r{_REG_SCRATCH_BASE})")
        else:
            out.emit(f"l.sw    {offset}(r{_REG_SCRATCH_BASE}), r{rb}")
    elif mnemonic in ("l.lhz", "l.lhs", "l.sh"):
        offset = 2 * rng.integers(0, 2 * _SCRATCH_WORDS)
        if mnemonic == "l.sh":
            out.emit(f"l.sh    {offset}(r{_REG_SCRATCH_BASE}), r{rb}")
        else:
            out.emit(f"{mnemonic} r{rd}, {offset}(r{_REG_SCRATCH_BASE})")
    elif mnemonic in ("l.lbz", "l.lbs", "l.sb"):
        offset = rng.integers(0, 4 * _SCRATCH_WORDS)
        if mnemonic == "l.sb":
            out.emit(f"l.sb    {offset}(r{_REG_SCRATCH_BASE}), r{rb}")
        else:
            out.emit(f"{mnemonic} r{rd}, {offset}(r{_REG_SCRATCH_BASE})")
    elif mnemonic in ("l.slli", "l.srli", "l.srai", "l.rori"):
        out.emit(f"{mnemonic} r{rd}, r{ra}, {rng.integers(0, 32)}")
    elif mnemonic in ("l.addi", "l.muli", "l.xori"):
        out.emit(f"{mnemonic} r{rd}, r{ra}, {rng.integers(-2048, 2048)}")
    elif mnemonic in ("l.andi", "l.ori"):
        out.emit(f"{mnemonic} r{rd}, r{ra}, {rng.integers(0, 65536)}")
    elif mnemonic == "l.movhi":
        out.emit(f"l.movhi r{rd}, {rng.integers(0, 65536)}")
    elif mnemonic in ("l.exths", "l.extbs", "l.exthz", "l.extbz", "l.ff1"):
        out.emit(f"{mnemonic} r{rd}, r{ra}")
    elif mnemonic in ("l.sfgtsi", "l.sfltui"):
        imm = rng.integers(0, 2048)
        out.emit(f"{mnemonic} r{ra}, {imm}")
    elif mnemonic in ("l.sfeq", "l.sfne", "l.sfgts", "l.sfltu"):
        out.emit(f"{mnemonic} r{ra}, r{rb}")
    elif mnemonic == "l.nop":
        out.emit("l.nop")
    else:   # three-register ALU forms
        out.emit(f"{mnemonic} r{rd}, r{ra}, r{rb}")


def _text_skip_branch(out, rng):
    """A data-dependent conditional branch over a couple of instructions."""
    label = out.label("skip")
    ra = rng.choice(_GP_REGS)
    out.emit(f"l.sfgtsi r{ra}, {rng.integers(0, 4000)}")
    out.emit(f"{'l.bf' if rng.uniform() < 0.5 else 'l.bnf'}    {label}")
    out.emit("l.nop")
    for _ in range(rng.integers(1, 4)):
        _text_random_instruction(out, rng)
    out.place(label)


def characterization_source(seed=1, length=1200, repeats=3):
    """The assembly text of a characterisation program.

    Parameters
    ----------
    seed:
        Generator seed (deterministic output).
    length:
        Approximate number of random-mix instructions per repeat block.
    repeats:
        Outer-loop count: the same static code runs ``repeats`` times with
        evolving register contents, multiplying dynamic coverage.
    """
    rng = RngStream(f"chargen/{seed}", root_seed=0xC0FFEE ^ seed)
    out = _TextEmitter()
    _text_prologue(out, repeats)
    emitted = 0
    while emitted < length:
        # a directed idiom burst roughly every 120 random instructions
        if emitted % 120 == 0:
            _text_idioms(out)
        if rng.uniform() < 0.08:
            _text_skip_branch(out, rng)
            emitted += 3
        else:
            _text_random_instruction(out, rng)
            emitted += 1
    _text_epilogue(out)
    return out.source()
