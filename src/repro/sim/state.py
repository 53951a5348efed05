"""Architectural state of the ISS pass and the pipeline model."""

from repro.isa.registers import REG_COUNT, REG_ZERO
from repro.utils.bitops import to_unsigned32


class ArchState:
    """OR1K architectural state: 32 GPRs, SR flag/carry bits and the PC.

    ``r0`` reads as zero; writes to it are silently discarded (matching the
    mor1kx configuration used in the paper's case study).
    """

    def __init__(self, entry=0):
        self.regs = [0] * REG_COUNT
        self.flag = False
        self.carry = False
        self.pc = entry
        self.instret = 0

    def read_reg(self, index):
        if index == REG_ZERO:
            return 0
        return self.regs[index]

    def write_reg(self, index, value):
        if index != REG_ZERO:
            self.regs[index] = to_unsigned32(value)

    def snapshot(self):
        """Copy of (regs, flag, carry, pc) for golden-model comparison."""
        return (tuple(self.regs), self.flag, self.carry, self.pc)

    def __repr__(self):
        return (
            f"ArchState(pc={self.pc:#010x}, flag={int(self.flag)}, "
            f"carry={int(self.carry)}, instret={self.instret})"
        )
