"""Instruction specifications for the implemented ORBIS32 subset.

Each :class:`InstructionSpec` describes one mnemonic: its binary format
(major opcode plus any secondary fields, following the OpenRISC 1000
architecture manual), which operands it takes, what kind of operation it
performs, and its *timing class* — the granularity at which the paper's
delay-prediction LUT is indexed (``l.add`` and ``l.addi`` excite the same
adder paths, hence share the class ``l.add(i)``).
"""

import enum
from dataclasses import dataclass, field


class Format(enum.Enum):
    """Binary encoding formats of the implemented subset."""

    J = "j"                    # l.j / l.jal:   opcode | imm26 (pc-relative)
    BRANCH = "branch"          # l.bf / l.bnf:  opcode | imm26 (pc-relative)
    JR = "jr"                  # l.jr / l.jalr: opcode | rB
    NOP = "nop"                # l.nop:         opcode | 0x01 << 24 | imm16
    MOVHI = "movhi"            # l.movhi:       opcode | rD | imm16
    LOAD = "load"              # l.lwz etc.:    opcode | rD | rA | imm16
    STORE = "store"            # l.sw etc.:     opcode | imm split | rA | rB
    ALU_IMM = "alu_imm"        # l.addi etc.:   opcode | rD | rA | imm16
    SHIFT_IMM = "shift_imm"    # l.slli etc.:   0x2E | rD | rA | op2 | L
    SETFLAG_IMM = "sf_imm"     # l.sfeqi etc.:  0x2F | cond | rA | imm16
    ALU_REG = "alu_reg"        # l.add etc.:    0x38 | rD | rA | rB | sub-op
    SETFLAG_REG = "sf_reg"     # l.sfeq etc.:   0x39 | cond | rA | rB


class InstructionKind(enum.Enum):
    """Functional unit / behavioural category of an instruction."""

    ALU = "alu"              # adder / logic ops
    SHIFT = "shift"          # barrel shifter
    MUL = "mul"              # single-cycle 32x32 multiplier
    DIV = "div"              # serial divider (multi-cycle)
    LOAD = "load"            # data-memory read
    STORE = "store"          # data-memory write
    BRANCH = "branch"        # conditional pc-relative branch (on flag)
    JUMP = "jump"            # unconditional pc-relative jump
    JUMP_REG = "jump_reg"    # register-indirect jump
    SETFLAG = "setflag"      # comparison writing the SR flag
    MOVE = "move"            # movhi / cmov / sign-zero extensions
    NOP = "nop"


#: Comparison condition codes shared by l.sfxx and l.sfxxi (bits 25-21).
SF_CONDITIONS = {
    "eq": 0x0,
    "ne": 0x1,
    "gtu": 0x2,
    "geu": 0x3,
    "ltu": 0x4,
    "leu": 0x5,
    "gts": 0xA,
    "ges": 0xB,
    "lts": 0xC,
    "les": 0xD,
}


@dataclass(frozen=True)
class InstructionSpec:
    """Static description of one mnemonic.

    Attributes
    ----------
    mnemonic:
        Assembly mnemonic including the ``l.`` prefix.
    fmt:
        Binary :class:`Format`.
    major:
        6-bit major opcode (bits 31-26).
    kind:
        Behavioural :class:`InstructionKind`.
    timing_class:
        Name of the delay-LUT class this mnemonic belongs to.
    secondary:
        Format-specific sub-opcode fields (see ``encoding.py``).
    writes_rd / reads_ra / reads_rb:
        Register-port usage, used by hazard detection and the assembler.
    signed_imm:
        Whether the 16-bit immediate is sign-extended (vs. zero-extended).
    has_delay_slot:
        True for control transfers (OR1K executes one delay-slot
        instruction after every taken or not-taken jump/branch).
    """

    mnemonic: str
    fmt: Format
    major: int
    kind: InstructionKind
    timing_class: str
    secondary: dict = field(default_factory=dict)
    writes_rd: bool = False
    reads_ra: bool = False
    reads_rb: bool = False
    signed_imm: bool = True
    has_delay_slot: bool = False

    @property
    def is_control(self):
        return self.kind in (
            InstructionKind.BRANCH,
            InstructionKind.JUMP,
            InstructionKind.JUMP_REG,
        )

    @property
    def reads_flag(self):
        return self.kind == InstructionKind.BRANCH or self.mnemonic == "l.cmov"

    @property
    def writes_flag(self):
        return self.kind == InstructionKind.SETFLAG


def _alu_reg(mnemonic, op4, timing_class, kind=InstructionKind.ALU,
             sec=0x0, shift_type=None, reads_rb=True):
    secondary = {"op4": op4, "sec": sec}
    if shift_type is not None:
        secondary["shift_type"] = shift_type
    return InstructionSpec(
        mnemonic=mnemonic, fmt=Format.ALU_REG, major=0x38, kind=kind,
        timing_class=timing_class, secondary=secondary,
        writes_rd=True, reads_ra=True, reads_rb=reads_rb,
    )


def _alu_imm(mnemonic, major, timing_class, kind=InstructionKind.ALU,
             signed_imm=True):
    return InstructionSpec(
        mnemonic=mnemonic, fmt=Format.ALU_IMM, major=major, kind=kind,
        timing_class=timing_class, writes_rd=True, reads_ra=True,
        signed_imm=signed_imm,
    )


def _shift_imm(mnemonic, shift_type, timing_class):
    return InstructionSpec(
        mnemonic=mnemonic, fmt=Format.SHIFT_IMM, major=0x2E,
        kind=InstructionKind.SHIFT, timing_class=timing_class,
        secondary={"shift_type": shift_type},
        writes_rd=True, reads_ra=True, signed_imm=False,
    )


def _load(mnemonic, major, timing_class):
    return InstructionSpec(
        mnemonic=mnemonic, fmt=Format.LOAD, major=major,
        kind=InstructionKind.LOAD, timing_class=timing_class,
        writes_rd=True, reads_ra=True,
    )


def _store(mnemonic, major, timing_class):
    return InstructionSpec(
        mnemonic=mnemonic, fmt=Format.STORE, major=major,
        kind=InstructionKind.STORE, timing_class=timing_class,
        reads_ra=True, reads_rb=True,
    )


def _setflag(mnemonic, cond_name, immediate):
    cond = SF_CONDITIONS[cond_name]
    signed = cond_name[-1] == "s" or cond_name in ("eq", "ne")
    if immediate:
        return InstructionSpec(
            mnemonic=mnemonic, fmt=Format.SETFLAG_IMM, major=0x2F,
            kind=InstructionKind.SETFLAG, timing_class="l.sfxx(i)",
            secondary={"cond": cond}, reads_ra=True, signed_imm=signed,
        )
    return InstructionSpec(
        mnemonic=mnemonic, fmt=Format.SETFLAG_REG, major=0x39,
        kind=InstructionKind.SETFLAG, timing_class="l.sfxx(i)",
        secondary={"cond": cond}, reads_ra=True, reads_rb=True,
    )


_SPEC_LIST = [
    # -- control transfers ------------------------------------------------
    InstructionSpec("l.j", Format.J, 0x00, InstructionKind.JUMP, "l.j",
                    has_delay_slot=True),
    InstructionSpec("l.jal", Format.J, 0x01, InstructionKind.JUMP, "l.j",
                    has_delay_slot=True),
    InstructionSpec("l.bnf", Format.BRANCH, 0x03, InstructionKind.BRANCH,
                    "l.bnf", has_delay_slot=True),
    InstructionSpec("l.bf", Format.BRANCH, 0x04, InstructionKind.BRANCH,
                    "l.bf", has_delay_slot=True),
    InstructionSpec("l.jr", Format.JR, 0x11, InstructionKind.JUMP_REG,
                    "l.jr", reads_rb=True, has_delay_slot=True),
    InstructionSpec("l.jalr", Format.JR, 0x12, InstructionKind.JUMP_REG,
                    "l.jr", reads_rb=True, has_delay_slot=True),
    # -- nop / movhi -------------------------------------------------------
    InstructionSpec("l.nop", Format.NOP, 0x05, InstructionKind.NOP, "l.nop",
                    signed_imm=False),
    InstructionSpec("l.movhi", Format.MOVHI, 0x06, InstructionKind.MOVE,
                    "l.movhi", writes_rd=True, signed_imm=False),
    # -- loads --------------------------------------------------------------
    _load("l.lwz", 0x21, "l.lwz"),
    _load("l.lbz", 0x23, "l.lbz"),
    _load("l.lbs", 0x24, "l.lbz"),
    _load("l.lhz", 0x25, "l.lhz"),
    _load("l.lhs", 0x26, "l.lhz"),
    # -- stores -------------------------------------------------------------
    _store("l.sw", 0x35, "l.sw"),
    _store("l.sb", 0x36, "l.sb"),
    _store("l.sh", 0x37, "l.sb"),
    # -- immediate ALU ------------------------------------------------------
    _alu_imm("l.addi", 0x27, "l.add(i)"),
    _alu_imm("l.andi", 0x29, "l.and(i)", signed_imm=False),
    _alu_imm("l.ori", 0x2A, "l.or(i)", signed_imm=False),
    _alu_imm("l.xori", 0x2B, "l.xor(i)"),
    _alu_imm("l.muli", 0x2C, "l.mul(i)", kind=InstructionKind.MUL),
    # -- immediate shifts ---------------------------------------------------
    _shift_imm("l.slli", 0x0, "l.sll(i)"),
    _shift_imm("l.srli", 0x1, "l.srl(i)"),
    _shift_imm("l.srai", 0x2, "l.sra(i)"),
    _shift_imm("l.rori", 0x3, "l.ror(i)"),
    # -- register-register ALU ----------------------------------------------
    _alu_reg("l.add", 0x0, "l.add(i)"),
    _alu_reg("l.addc", 0x1, "l.add(i)"),
    _alu_reg("l.sub", 0x2, "l.sub"),
    _alu_reg("l.and", 0x3, "l.and(i)"),
    _alu_reg("l.or", 0x4, "l.or(i)"),
    _alu_reg("l.xor", 0x5, "l.xor(i)"),
    _alu_reg("l.mul", 0x6, "l.mul(i)", kind=InstructionKind.MUL, sec=0x3),
    _alu_reg("l.div", 0x9, "l.div", kind=InstructionKind.DIV, sec=0x3),
    _alu_reg("l.divu", 0xA, "l.div", kind=InstructionKind.DIV, sec=0x3),
    _alu_reg("l.mulu", 0xB, "l.mul(i)", kind=InstructionKind.MUL, sec=0x3),
    _alu_reg("l.sll", 0x8, "l.sll(i)", kind=InstructionKind.SHIFT,
             shift_type=0x0),
    _alu_reg("l.srl", 0x8, "l.srl(i)", kind=InstructionKind.SHIFT,
             shift_type=0x1),
    _alu_reg("l.sra", 0x8, "l.sra(i)", kind=InstructionKind.SHIFT,
             shift_type=0x2),
    _alu_reg("l.ror", 0x8, "l.ror(i)", kind=InstructionKind.SHIFT,
             shift_type=0x3),
    _alu_reg("l.cmov", 0xE, "l.cmov"),
    _alu_reg("l.exths", 0xC, "l.extx", kind=InstructionKind.MOVE,
             shift_type=0x0, reads_rb=False),
    _alu_reg("l.extbs", 0xC, "l.extx", kind=InstructionKind.MOVE,
             shift_type=0x1, reads_rb=False),
    _alu_reg("l.exthz", 0xC, "l.extx", kind=InstructionKind.MOVE,
             shift_type=0x2, reads_rb=False),
    _alu_reg("l.extbz", 0xC, "l.extx", kind=InstructionKind.MOVE,
             shift_type=0x3, reads_rb=False),
    _alu_reg("l.ff1", 0xF, "l.extx", kind=InstructionKind.MOVE,
             reads_rb=False),
    # -- set-flag comparisons ------------------------------------------------
    _setflag("l.sfeq", "eq", immediate=False),
    _setflag("l.sfne", "ne", immediate=False),
    _setflag("l.sfgtu", "gtu", immediate=False),
    _setflag("l.sfgeu", "geu", immediate=False),
    _setflag("l.sfltu", "ltu", immediate=False),
    _setflag("l.sfleu", "leu", immediate=False),
    _setflag("l.sfgts", "gts", immediate=False),
    _setflag("l.sfges", "ges", immediate=False),
    _setflag("l.sflts", "lts", immediate=False),
    _setflag("l.sfles", "les", immediate=False),
    _setflag("l.sfeqi", "eq", immediate=True),
    _setflag("l.sfnei", "ne", immediate=True),
    _setflag("l.sfgtui", "gtu", immediate=True),
    _setflag("l.sfgeui", "geu", immediate=True),
    _setflag("l.sfltui", "ltu", immediate=True),
    _setflag("l.sfleui", "leu", immediate=True),
    _setflag("l.sfgtsi", "gts", immediate=True),
    _setflag("l.sfgesi", "ges", immediate=True),
    _setflag("l.sfltsi", "lts", immediate=True),
    _setflag("l.sflesi", "les", immediate=True),
]

#: Mapping from mnemonic to its specification.
SPECS = {spec.mnemonic: spec for spec in _SPEC_LIST}

#: Stable small-integer code per :class:`InstructionKind`, used by the
#: vectorized simulation/excitation paths to put kinds into NumPy arrays.
KIND_CODE = {kind: index for index, kind in enumerate(InstructionKind)}

#: Stable small-integer id per mnemonic (:data:`SPECS` order), the
#: mnemonic column of the decoded images and the vectorized EX replay;
#: ``MNEMONICS[MNEMONIC_ID[m]] == m``.
MNEMONICS = tuple(SPECS)
MNEMONIC_ID = {mnemonic: index for index, mnemonic in enumerate(MNEMONICS)}

if len(SPECS) != len(_SPEC_LIST):
    raise AssertionError("duplicate mnemonic in instruction spec table")


def spec_for(mnemonic):
    """Look up the :class:`InstructionSpec` for a mnemonic.

    Raises ``KeyError`` with a helpful message for unknown mnemonics.
    """
    try:
        return SPECS[mnemonic]
    except KeyError:
        raise KeyError(
            f"unknown or unimplemented OR1K mnemonic: {mnemonic!r}"
        ) from None
