"""Two-pass assembler, disassembler and program image container.

Benchmarks and characterisation kernels are written in OR1K assembly text
(the paper compiles C with the OpenRISC GCC toolchain; we substitute
hand-written assembly with equivalent instruction mixes, see
ARCHITECTURE.md, "Model substitutions").
The assembler produces a :class:`~repro.asm.program.Program` image that the
simulator loads; the disassembler regenerates text from encoded words, and
is used to build the program traces of the characterisation flow.
"""

from repro._lazy import lazy_exports

__all__ = [
    "assemble",
    "AssemblerError",
    "disassemble",
    "disassemble_program",
    "Program",
    "ProgramBuilder",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "assembler": ("AssemblerError", "assemble"),
    "builder": ("ProgramBuilder",),
    "disassembler": ("disassemble", "disassemble_program"),
    "program": ("Program",),
})
