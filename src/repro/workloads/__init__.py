"""Benchmark and characterisation workloads.

The paper evaluates with CoreMark and BEEBS compiled by the OpenRISC GCC
toolchain.  Without that toolchain we provide hand-written OR1K assembly
kernels with the same instruction-mix characteristics (see
ARCHITECTURE.md, "Model substitutions"):

- :mod:`repro.workloads.kernels` — BEEBS-style single kernels (CRC, matrix
  multiply, sorts, searches, FIR, sieve, state machine, ...), each with a
  pure-Python golden reference checked by the test suite;
- :mod:`repro.workloads.coremark` — a CoreMark-style composite combining
  list processing, matrix work, a state machine and CRC;
- :mod:`repro.workloads.randomgen` — the directed semi-random program
  generator used for characterisation (paper Fig. 2), which guarantees
  worst-case operand patterns for every timing class;
- :mod:`repro.workloads.suite` — named suites used by the benches.
"""

import pathlib

from repro._lazy import lazy_exports


class WorkloadError(Exception):
    """A program spec (kernel name or assembly path) cannot be resolved."""


def resolve_program(spec):
    """Resolve a program spec into an assembled :class:`Program`.

    A spec is either the name of a bundled kernel or a path to a
    ``.s``/``.asm`` assembly file.  Unknown kernels and missing files
    raise :class:`WorkloadError` with the list of bundled kernels, and a
    file that does not assemble raises it naming the file and the line,
    so front ends (CLI, scenario grids) can report a friendly error
    instead of a raw traceback.
    """
    from repro.asm import AssemblerError, assemble
    from repro.workloads.kernels import get_kernel

    path = pathlib.Path(spec)
    if path.suffix in (".s", ".asm") or path.exists():
        if not path.is_file():
            raise WorkloadError(
                f"assembly file not found: {spec!r}\n"
                f"(bundled kernels: {', '.join(_kernel_names())})"
            )
        try:
            return assemble(path.read_text(), name=path.stem)
        except AssemblerError as error:
            raise WorkloadError(f"cannot assemble {spec!r}: {error}") from None
    try:
        return get_kernel(spec).program()
    except KeyError:
        raise WorkloadError(
            f"unknown kernel {spec!r}\n"
            f"(bundled kernels: {', '.join(_kernel_names())}; "
            f"or pass a path to a .s/.asm file)"
        ) from None


def _kernel_names():
    from repro.workloads.kernels import all_kernels

    return sorted(kernel.name for kernel in all_kernels())


__all__ = [
    "Kernel",
    "WorkloadError",
    "all_kernels",
    "get_kernel",
    "resolve_program",
    "generate_characterization_program",
    "program_stream",
    "benchmark_suite",
    "characterization_suite",
    "suite_names",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "kernels": ("Kernel", "all_kernels", "get_kernel"),
    "randomgen": ("generate_characterization_program", "program_stream"),
    "suite": ("benchmark_suite", "characterization_suite", "suite_names"),
})
