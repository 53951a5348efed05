"""Named workload suites used by the flows and benches.

``gcd`` is deliberately not in the Fig. 8 suite: its 32-cycle serial
divides stall the pipeline so heavily that a genie oracle can overclock
the held stages absurdly, which says nothing about instruction-based
adjustment.  It remains available as a kernel (divider coverage in tests
and the CLI).
"""

from repro.workloads.kernels import all_kernels, get_kernel

#: Kernels shown on the Fig. 8 x-axis (our CoreMark + BEEBS equivalent).
BENCHMARK_NAMES = (
    "coremark",
    "binarysearch",
    "bitrev",
    "bubblesort",
    "countbits",
    "crc16",
    "crc32",
    "dotprod",
    "fib",
    "fir",
    "halfswap",
    "histogram",
    "insertsort",
    "matmult",
    "memcpy",
    "primes",
    "statemachine",
    "strsearch",
)


def suite_names():
    return list(BENCHMARK_NAMES)


def benchmark_suite():
    """Programs of the evaluation suite (paper Fig. 8)."""
    return [get_kernel(name).program() for name in BENCHMARK_NAMES]


def benchmark_kernels():
    return [get_kernel(name) for name in BENCHMARK_NAMES]


#: Hand-written kernels included in the characterisation set (paper: "small
#: hand-written kernels as well as semi-random test-cases").
CHARACTERIZATION_KERNELS = (
    "crc32",
    "matmult",
    "bubblesort",
    "statemachine",
    "memcpy",
)


def characterization_suite(seed=1, random_programs=2, length=1200,
                           repeats=3):
    """Programs for the characterisation flow (paper Sec. II-B.2).

    A mix of hand kernels and directed semi-random programs; the random
    programs guarantee worst-case pattern coverage for every class.
    """
    from repro.workloads.randomgen import generate_characterization_program

    programs = [
        generate_characterization_program(
            seed=seed + index, length=length, repeats=repeats
        )
        for index in range(random_programs)
    ]
    programs.extend(
        get_kernel(name).program() for name in CHARACTERIZATION_KERNELS
    )
    return programs


def kernel_table():
    """(name, category, description) rows for reports."""
    return [
        (kernel.name, kernel.category, kernel.description)
        for kernel in all_kernels()
    ]
