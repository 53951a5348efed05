"""Feature extraction for learned clock policies (repro.ml.features)."""

import numpy as np
import pytest

from repro.dta.compiled import compile_trace, get_compiled_trace
from repro.isa.opcodes import SPECS
from repro.ml.features import (
    NUM_FEATURES,
    OPCODE_GROUPS,
    OnlineFeatureExtractor,
    class_group,
    class_vocabulary,
    extract_features,
    feature_names,
    group_ids,
    rolling_prev_count,
)
from repro.sim.trace import Stage
from repro.timing.profiles import BUBBLE_CLASS
from repro.workloads import get_kernel

from oracle import PipelineSimulator


@pytest.fixture(scope="module")
def fib_compiled(design):
    return get_compiled_trace(get_kernel("fib").program(), design)


class TestVocabulary:
    def test_sorted_and_complete(self):
        vocab = class_vocabulary()
        assert list(vocab) == sorted(vocab)
        assert BUBBLE_CLASS in vocab
        for spec in SPECS.values():
            assert spec.timing_class in vocab

    def test_stable_across_calls(self):
        assert class_vocabulary() == class_vocabulary()

    def test_groups(self):
        assert class_group(BUBBLE_CLASS) == "bubble"
        assert class_group("l.mul(i)") == "muldiv"
        assert class_group("l.div") == "muldiv"
        assert class_group("l.lwz") == "mem"
        assert class_group("l.bf") == "control"
        with pytest.raises(ValueError, match="unknown timing class"):
            class_group("l.bogus")

    def test_group_ids_cover_vocabulary(self):
        vocab = class_vocabulary()
        ids = group_ids(vocab)
        assert ids.shape == (len(vocab),)
        assert ((ids >= 0) & (ids < len(OPCODE_GROUPS))).all()


class TestRollingCount:
    def test_matches_naive(self):
        rng = np.random.default_rng(1)
        flags = rng.integers(0, 2, size=200).astype(bool)
        for window in (1, 3, 8):
            fast = rolling_prev_count(flags, window)
            naive = [
                int(flags[max(0, t - window):t].sum())
                for t in range(len(flags))
            ]
            assert fast.tolist() == naive

    def test_current_cycle_never_counts(self):
        flags = np.array([1, 0, 0], dtype=bool)
        assert rolling_prev_count(flags, 4).tolist() == [0.0, 1.0, 1.0]

    @pytest.mark.parametrize("window", [0, -1])
    def test_degenerate_window_rejected(self, window, fib_compiled):
        """window < 1 would silently diverge the scalar and vector
        paths (sum over an empty slice vs the whole history) — every
        entry point rejects it instead."""
        with pytest.raises(ValueError, match="window must be >= 1"):
            rolling_prev_count(np.zeros(4, dtype=bool), window)
        with pytest.raises(ValueError, match="window must be >= 1"):
            extract_features(fib_compiled, window=window)
        with pytest.raises(ValueError, match="window must be >= 1"):
            OnlineFeatureExtractor(window=window)


class TestExtractFeatures:
    def test_shape_and_names(self, fib_compiled):
        features = extract_features(fib_compiled)
        assert features.matrix.shape == (
            fib_compiled.num_cycles, NUM_FEATURES
        )
        assert features.names == feature_names()
        assert features.matrix.dtype == np.float64

    def test_adr_column_keys_on_ex(self, fib_compiled):
        features = extract_features(fib_compiled)
        adr = features.matrix[:, int(Stage.ADR)]
        ex = features.matrix[:, int(Stage.EX)]
        assert (adr == ex).all()

    def test_class_ids_use_global_vocabulary(self, fib_compiled):
        vocab = class_vocabulary()
        features = extract_features(fib_compiled)
        ids = features.matrix[:, :len(Stage)].astype(int)
        for stage in Stage:
            for cycle in (0, fib_compiled.num_cycles - 1):
                local = fib_compiled.class_ids[cycle, stage]
                assert vocab[ids[cycle, stage]] == \
                    fib_compiled.class_names[local]

    def test_flags_match_compiled(self, fib_compiled):
        features = extract_features(fib_compiled)
        base = 2 * len(Stage)
        for stage in Stage:
            bubble = features.matrix[:, base + 2 * int(stage)]
            held = features.matrix[:, base + 2 * int(stage) + 1]
            assert (bubble == fib_compiled.bubble[:, stage]).all()
            assert (held == fib_compiled.held[:, stage]).all()
        stall = features.matrix[:, base + 2 * len(Stage)]
        redirect = features.matrix[:, base + 2 * len(Stage) + 1]
        assert (stall == fib_compiled.stall).all()
        assert (redirect == fib_compiled.redirect).all()

    def test_window_features_are_causal(self, fib_compiled):
        window = 4
        features = extract_features(fib_compiled, window=window)
        redirect = fib_compiled.redirect
        naive = [
            int(redirect[max(0, t - window):t].sum())
            for t in range(fib_compiled.num_cycles)
        ]
        assert features.matrix[:, -1].tolist() == naive

    def test_vocab_ids_unknown_class_raises(self, fib_compiled):
        with pytest.raises(ValueError, match="not in vocabulary"):
            fib_compiled.vocab_ids(("only-this",))


class TestOnlineExtractor:
    @pytest.mark.parametrize("kernel", ["fib", "crc16"])
    def test_bit_identical_to_vectorized(self, design, kernel):
        """The per-record shift-register view equals the array path —
        the reference semantics of a learned policy's monitor."""
        program = get_kernel(kernel).program()
        trace = PipelineSimulator(program).run()
        compiled = compile_trace(trace, design.excitation)
        matrix = extract_features(compiled).matrix
        online = OnlineFeatureExtractor()
        for index, record in enumerate(trace.records):
            row = online.features_for(record)
            assert (row == matrix[index]).all(), (kernel, index)

    def test_unknown_class_raises(self):
        extractor = OnlineFeatureExtractor(vocabulary=("<bubble>",))
        program = get_kernel("fib").program()
        trace = PipelineSimulator(program).run()
        with pytest.raises(ValueError, match="not in the model vocab"):
            for record in trace.records:
                extractor.features_for(record)
