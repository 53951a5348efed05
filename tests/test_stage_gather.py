"""Per-stage-column policy gathers against the 2-D fancy gather.

``InstructionLutPolicy`` and ``TwoClassPolicy`` fold one stage column at
a time (``repro.clocking.policies.fold_stages``).  The formulation they
replaced — one ``(cycles, stages)`` fancy gather, reduced over the stage
axis — is kept here as the reference, and every period vector must equal
it bit for bit: on every bundled kernel under every pipeline-spec preset
that changes the stage layout or the interlocks, on window slices, and on
the narrow int class ids of a trace rehydrated from the artifact store.
"""

import numpy as np
import pytest

from repro.clocking.policies import (
    InstructionLutPolicy,
    TwoClassPolicy,
    fold_stages,
)
from repro.dta.compiled import compile_vector_run
from repro.lab.store import ArtifactStore
from repro.sim import vector
from repro.sim.spec import get_pipeline_spec
from repro.stream.windows import iter_windows
from repro.timing.design import build_design
from repro.timing.profiles import DesignVariant
from repro.workloads import all_kernels, get_kernel

SPECS = ("baseline6", "nofwd6", "slowmem6", "deep7", "shallow5")

MAX_CYCLES = 4_000_000


def fancy_instruction_periods(trace, table):
    """The 2-D gather: ``[t, s]`` is the entry of the class driving
    stage ``s`` in cycle ``t``, maximised over the stages."""
    stages = np.arange(trace.class_ids.shape[1])
    return table[trace.class_ids, stages].max(axis=1)


def fancy_two_class_periods(policy, trace):
    slow = np.array(
        [policy._is_slow(cls) for cls in trace.class_names], dtype=bool
    )
    any_slow = slow[trace.class_ids].any(axis=1)
    return np.where(
        any_slow, float(policy.slow_period_ps), float(policy.fast_period_ps)
    )


def assert_bit_identical(actual, expected):
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def assert_gathers_match(trace, lut):
    instruction = InstructionLutPolicy(lut)
    assert_bit_identical(
        instruction.periods_for(trace),
        fancy_instruction_periods(trace, trace.class_table(lut)),
    )
    two_class = TwoClassPolicy(lut)
    assert_bit_identical(
        two_class.periods_for(trace),
        fancy_two_class_periods(two_class, trace),
    )


def compile_kernel(name, design):
    run = vector.simulate(get_kernel(name).program(), max_cycles=MAX_CYCLES,
                          spec=design.pipeline_spec)
    return compile_vector_run(run, design.excitation)


@pytest.fixture(scope="module", params=SPECS)
def spec_design(request):
    return build_design(DesignVariant.CRITICAL_RANGE,
                        pipeline_spec=get_pipeline_spec(request.param))


class TestFoldStages:
    def test_max_and_or_over_a_small_matrix(self):
        class_ids = np.array([[0, 1, 2], [2, 2, 0], [1, 0, 1]])
        table = np.array([[1.0, 5.0, 2.0], [4.0, 3.0, 9.0],
                          [7.0, 0.5, 6.0]])
        np.testing.assert_array_equal(
            fold_stages(table.T, class_ids, np.maximum),
            [max(1.0, 3.0, 6.0), max(7.0, 0.5, 2.0), max(4.0, 5.0, 9.0)],
        )
        slow = np.array([False, False, True])
        np.testing.assert_array_equal(
            fold_stages([slow] * 3, class_ids, np.logical_or),
            [True, True, False],
        )

    def test_zero_cycles(self):
        class_ids = np.empty((0, 6), dtype=np.int32)
        table = np.ones((2, 6))
        assert fold_stages(table.T, class_ids, np.maximum).shape == (0,)

    def test_nan_propagates_like_the_axis_max(self):
        class_ids = np.array([[0, 1], [1, 1]])
        table = np.array([[1.0, np.nan], [2.0, 3.0]])
        np.testing.assert_array_equal(
            fold_stages(table.T, class_ids, np.maximum),
            table[class_ids, np.arange(2)].max(axis=1),
        )


class TestKernelsOnEverySpec:
    def test_every_kernel(self, spec_design, lut):
        for kernel in all_kernels():
            trace = compile_kernel(kernel.name, spec_design)
            assert trace.class_ids.shape[1] == (
                spec_design.pipeline_spec.num_stages
            )
            assert_gathers_match(trace, lut)


class TestWindows:
    @pytest.mark.parametrize("window_cycles", [1, 7, 64, None])
    def test_window_slices(self, design, lut, window_cycles):
        trace = compile_kernel("crc16", design)
        instruction = InstructionLutPolicy(lut)
        two_class = TwoClassPolicy(lut)
        pieces = []
        for window in iter_windows(trace, window_cycles):
            assert_gathers_match(window, lut)
            pieces.append(instruction.periods_for(window))
            assert_bit_identical(
                two_class.periods_for(window),
                fancy_two_class_periods(two_class, window),
            )
        assert_bit_identical(np.concatenate(pieces),
                             instruction.periods_for(trace))


class TestRehydratedTrace:
    def test_int8_class_ids(self, design, lut, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        program = get_kernel("matmult").program()
        trace = compile_kernel("matmult", design)
        store.save_compiled_trace(trace, program, design, MAX_CYCLES)
        loaded = store.load_compiled_trace(program, design, MAX_CYCLES)
        assert loaded.class_ids.dtype == np.int8
        assert_gathers_match(loaded, lut)
        for policy in (InstructionLutPolicy(lut), TwoClassPolicy(lut)):
            assert_bit_identical(policy.periods_for(loaded),
                                 policy.periods_for(trace))
        window = next(iter_windows(loaded, 50))
        assert window.class_ids.dtype == np.int8
        assert_gathers_match(window, lut)
