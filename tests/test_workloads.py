"""Workload suite tests: kernels, suites, random generator coverage."""

import pytest

from repro.isa.classes import all_timing_classes
from repro.sim import simulate
from repro.sim.state import ArchState
from repro.workloads import all_kernels, get_kernel
from repro.workloads.coremark import coremark_reference
from repro.asm import assemble
from repro.workloads.randomgen import generate_characterization_program
from repro.workloads.suite import (
    BENCHMARK_NAMES,
    benchmark_suite,
    characterization_suite,
    kernel_table,
    suite_names,
)

from oracle import PipelineSimulator, characterization_source

#: ``(seed, length, repeats)`` cases of the direct-encoding check: the
#: suite's two programs, the perfbench stream shape, a program shorter
#: than one idiom burst and a long one.
GENERATOR_CASES = [
    (1, 1200, 3), (2, 1200, 3), (7, 400, 2), (42, 400, 2), (123, 50, 1),
    (99999, 3000, 5),
]


class TestKernelRegistry:
    def test_suite_size(self):
        assert len(all_kernels()) >= 17

    def test_all_benchmark_names_resolve(self):
        for name in BENCHMARK_NAMES:
            assert get_kernel(name).name == name

    def test_unknown_kernel_message(self):
        with pytest.raises(KeyError, match="available"):
            get_kernel("nope")

    def test_categories_diverse(self):
        categories = {kernel.category for kernel in all_kernels()}
        assert {"alu", "mul", "memory", "control", "mixed"} <= categories

    def test_kernel_table(self):
        rows = kernel_table()
        assert len(rows) == len(all_kernels())

    def test_verify_state_rejects_wrong_value(self):
        kernel = get_kernel("fib")
        with pytest.raises(AssertionError, match="r11"):
            kernel.verify_state(ArchState())       # not yet run


class TestKernelExecution:
    @pytest.mark.parametrize("kernel", all_kernels(), ids=lambda k: k.name)
    def test_golden_reference(self, kernel):
        kernel.verify_state(simulate(kernel.program()).state)

    def test_coremark_reference_value(self):
        assert 0 <= coremark_reference() <= 0xFFFF

    def test_programs_are_cached(self):
        kernel = get_kernel("crc32")
        assert kernel.program() is kernel.program()


class TestSuites:
    def test_benchmark_suite_assembles(self):
        programs = benchmark_suite()
        assert len(programs) == len(BENCHMARK_NAMES)
        assert suite_names() == list(BENCHMARK_NAMES)

    def test_characterization_suite_composition(self):
        programs = characterization_suite(random_programs=2)
        names = [program.name for program in programs]
        assert sum(1 for n in names if n.startswith("chargen")) == 2
        assert "crc32" in names


class TestRandomGenerator:
    def test_deterministic(self):
        # unmemoised, so the two programs are built independently
        generate = generate_characterization_program.__wrapped__
        a = generate(seed=9, length=150)
        b = generate(seed=9, length=150)
        assert a is not b
        assert a.words == b.words and a.symbols == b.symbols

    def test_seed_sensitivity(self):
        generate = generate_characterization_program.__wrapped__
        a = generate(seed=1, length=150)
        b = generate(seed=2, length=150)
        assert a.words != b.words

    @pytest.mark.parametrize("seed, length, repeats", GENERATOR_CASES)
    def test_direct_encoding_equals_assembled_text(self, seed, length,
                                                   repeats):
        expected = assemble(characterization_source(seed, length, repeats),
                            name=f"chargen-{seed}")
        program = generate_characterization_program.__wrapped__(
            seed=seed, length=length, repeats=repeats
        )
        assert program.name == expected.name
        assert program.entry == expected.entry
        # same items in the same insertion order
        assert list(program.words.items()) == list(expected.words.items())
        assert list(program.instructions.items()) == list(
            expected.instructions.items()
        )
        assert list(program.symbols.items()) == list(
            expected.symbols.items()
        )

    def test_runs_to_halt_on_both_models(self):
        program = generate_characterization_program(
            seed=4, length=200, repeats=2
        )
        pipe = PipelineSimulator(program)
        pipe.run()
        assert simulate(program).state.regs == pipe.state.regs

    def test_covers_every_timing_class(self):
        """The directed generator must exercise every LUT class (this is
        what makes the characterisation complete)."""
        program = generate_characterization_program(
            seed=1, length=400, repeats=1
        )
        pipe = PipelineSimulator(program)
        pipe.run()
        executed = set(pipe.trace.class_mix())
        missing = set(all_timing_classes()) - executed
        assert not missing, f"classes never executed: {missing}"

    def test_repeats_scale_cycles(self):
        one = PipelineSimulator(
            generate_characterization_program(seed=3, length=150, repeats=1)
        )
        one.run()
        three = PipelineSimulator(
            generate_characterization_program(seed=3, length=150, repeats=3)
        )
        three.run()
        assert three.trace.num_cycles > 2 * one.trace.num_cycles
