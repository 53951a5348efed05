"""OpenRISC 1000 (ORBIS32 subset) instruction set.

This package provides the ISA substrate for the reproduction: register
definitions, instruction specifications with their real 32-bit encodings,
an encoder/decoder pair, and the mapping from
mnemonics to the *timing classes* used by the delay-prediction LUT of the
paper (e.g. ``l.add`` and ``l.addi`` share the class ``l.add(i)``).
"""

from repro._lazy import lazy_exports

__all__ = [
    "Instruction",
    "Format",
    "InstructionKind",
    "InstructionSpec",
    "SPECS",
    "spec_for",
    "encode",
    "decode",
    "timing_class",
    "all_timing_classes",
    "REG_COUNT",
    "REG_ZERO",
    "REG_SP",
    "REG_LINK",
    "parse_register",
    "register_name",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "classes": ("timing_class", "all_timing_classes"),
    "encoding": ("decode", "encode"),
    "instruction": ("Instruction",),
    "opcodes": (
        "Format", "InstructionKind", "InstructionSpec", "SPECS", "spec_for",
    ),
    "registers": (
        "REG_COUNT", "REG_LINK", "REG_SP", "REG_ZERO", "parse_register",
        "register_name",
    ),
})
