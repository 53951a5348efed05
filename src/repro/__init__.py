"""repro — instruction-based dynamic clock adjustment (DATE 2015).

A complete Python reproduction of:

    J. Constantin, L. Wang, G. Karakonstantis, A. Chattopadhyay, A. Burg,
    "Exploiting Dynamic Timing Margins in Microprocessors for
    Frequency-Over-Scaling with Instruction-Based Clock Adjustment",
    DATE 2015, pp. 381-386.

The public API is re-exported here; see README.md for a quickstart and
DESIGN.md for the system inventory.
"""

__version__ = "1.0.0"

from repro.asm import Program, ProgramBuilder, assemble, disassemble
from repro.isa import Instruction, decode, encode
from repro.sim import FunctionalSimulator, simulate

__all__ = [
    "__version__",
    "assemble",
    "disassemble",
    "Program",
    "ProgramBuilder",
    "Instruction",
    "encode",
    "decode",
    "FunctionalSimulator",
    "simulate",
]
