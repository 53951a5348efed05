"""repro — instruction-based dynamic clock adjustment (DATE 2015).

A complete Python reproduction of:

    J. Constantin, L. Wang, G. Karakonstantis, A. Chattopadhyay, A. Burg,
    "Exploiting Dynamic Timing Margins in Microprocessors for
    Frequency-Over-Scaling with Instruction-Based Clock Adjustment",
    DATE 2015, pp. 381-386.

The public API is re-exported here, lazily (:mod:`repro._lazy`); see
README.md for a quickstart and ARCHITECTURE.md for the system design,
with its "Model substitutions" for what stands in for the paper's PDK
and toolchain.
"""

__version__ = "1.0.0"

from repro._lazy import lazy_exports

__all__ = [
    "__version__",
    "assemble",
    "disassemble",
    "Program",
    "ProgramBuilder",
    "Instruction",
    "encode",
    "decode",
    "simulate",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "asm": ("Program", "ProgramBuilder", "assemble", "disassemble"),
    "isa": ("Instruction", "decode", "encode"),
    "sim": ("simulate",),
})
