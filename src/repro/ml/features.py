"""Per-instruction feature extraction for learned clock policies.

A learned period predictor sees, per cycle, exactly what the hardware
monitor of paper Fig. 1 sees — which instruction occupies which pipeline
stage group — encoded as a flat numeric feature vector:

- **global class ids** per stage group: the compiled trace's interned
  class ids remapped onto the fixed ISA-wide vocabulary
  (:func:`class_vocabulary`), so ids mean the same thing across
  programs, traces and training runs;
- **opcode-group ids** per stage group: a coarse functional bucket
  (alu / shift / mul-div / memory / control / nop / bubble) derived from
  the ISA specs, giving the model a semantic axis that generalises
  across classes;
- **occupancy flags**: per-stage bubble and hold bits plus the
  front-end ``stall``/``redirect`` state;
- **recent-window excitation**: causal counts over the previous
  ``window`` cycles of long-latency EX occupants (mul/div group) and of
  taken redirects — cheap history the real monitor could track with a
  shift register.

:func:`extract_features` builds the whole ``(num_cycles, NUM_FEATURES)``
matrix from a :class:`~repro.dta.compiled.CompiledTrace` with array ops
only; :class:`WindowedFeatureExtractor` builds the same rows window by
window for the streaming engine.
"""

import numpy as np

from repro.isa.opcodes import SPECS, InstructionKind
# the layout version of the features built here: bump it on any change
from repro.ml.model import FEATURE_SPEC_VERSION  # noqa: F401
from repro.sim.trace import Stage
from repro.timing.profiles import BUBBLE_CLASS

#: Default recent-window length (cycles of history).
DEFAULT_WINDOW = 8

#: Opcode groups, in fixed id order (index = group id).
OPCODE_GROUPS = ("bubble", "alu", "shift", "muldiv", "mem", "control", "nop")

_KIND_GROUP = {
    InstructionKind.ALU: "alu",
    InstructionKind.SETFLAG: "alu",
    InstructionKind.MOVE: "alu",
    InstructionKind.SHIFT: "shift",
    InstructionKind.MUL: "muldiv",
    InstructionKind.DIV: "muldiv",
    InstructionKind.LOAD: "mem",
    InstructionKind.STORE: "mem",
    InstructionKind.BRANCH: "control",
    InstructionKind.JUMP: "control",
    InstructionKind.JUMP_REG: "control",
    InstructionKind.NOP: "nop",
}

_MULDIV_GROUP_ID = OPCODE_GROUPS.index("muldiv")


def class_vocabulary():
    """The fixed, ISA-wide timing-class vocabulary (sorted, bubble
    included).  Every class a compiled trace can ever intern is here, so
    a model trained against this vocabulary never meets an unknown id."""
    classes = {spec.timing_class for spec in SPECS.values()}
    classes.add(BUBBLE_CLASS)
    return tuple(sorted(classes))


def class_group(cls):
    """Opcode-group name of one timing class."""
    if cls == BUBBLE_CLASS:
        return "bubble"
    for spec in SPECS.values():
        if spec.timing_class == cls:
            return _KIND_GROUP[spec.kind]
    raise ValueError(f"unknown timing class {cls!r}")


def group_ids(vocabulary):
    """Group id of every vocabulary entry, as an int64 lookup array."""
    return np.array(
        [OPCODE_GROUPS.index(class_group(cls)) for cls in vocabulary],
        dtype=np.int64,
    )


def feature_names(window=DEFAULT_WINDOW):
    """Ordered feature names — the column layout of the matrix."""
    names = [f"class_id[{stage.name}]" for stage in Stage]
    names += [f"group_id[{stage.name}]" for stage in Stage]
    for stage in Stage:
        names += [f"bubble[{stage.name}]", f"held[{stage.name}]"]
    names += ["stall", "redirect"]
    names += [f"window{window}_muldiv", f"window{window}_redirect"]
    return tuple(names)


#: Number of feature columns (independent of the window length).
NUM_FEATURES = len(feature_names())


def _validate_window(window):
    window = int(window)
    if window < 1:
        raise ValueError(
            f"recent-excitation window must be >= 1 cycle, got {window}"
        )
    return window


def _canonical_cycle_arrays(compiled, ids, vocabulary):
    """Project a trace's per-column arrays onto the six canonical stage
    groups, keeping :data:`NUM_FEATURES` fixed across pipeline specs.

    Default-spec traces pass through untouched (bit-identical features).
    For other specs each canonical group reads its representative
    column (:meth:`~repro.sim.spec.PipelineSpec.canonical_column`);
    groups the spec has no stage for (e.g. FE in a five-stage machine)
    read as permanent bubbles.
    """
    spec = compiled.pipeline_spec
    if spec.is_default:
        return ids, compiled.bubble, compiled.held
    num_cycles = compiled.num_cycles
    bubble_id = vocabulary.index(BUBBLE_CLASS)
    out_ids = np.full((num_cycles, len(Stage)), bubble_id, dtype=ids.dtype)
    bubble = np.ones((num_cycles, len(Stage)), dtype=bool)
    held = np.zeros((num_cycles, len(Stage)), dtype=bool)
    for stage in Stage:
        column = spec.canonical_column(stage)
        if column is None:
            continue
        out_ids[:, stage] = ids[:, column]
        bubble[:, stage] = compiled.bubble[:, column]
        held[:, stage] = compiled.held[:, column]
    return out_ids, bubble, held


def rolling_prev_count(flags, window):
    """Causal rolling count: element ``t`` is the number of set flags in
    cycles ``[t - window, t - 1]`` — the current cycle never counts
    itself, so the feature is available before the cycle executes."""
    window = _validate_window(window)
    flags = np.asarray(flags)
    prefix = np.concatenate(
        [[0], np.cumsum(flags.astype(np.int64))]
    )
    index = np.arange(len(flags))
    lower = np.maximum(index - window, 0)
    return (prefix[index] - prefix[lower]).astype(np.float64)


class FeatureMatrix:
    """One compiled trace's features: ``matrix`` is float64
    ``(num_cycles, NUM_FEATURES)``, ``names`` the column labels."""

    def __init__(self, matrix, names):
        self.matrix = matrix
        self.names = tuple(names)

    @property
    def num_cycles(self):
        return self.matrix.shape[0]

    @property
    def num_features(self):
        return self.matrix.shape[1]


def extract_features(compiled, vocabulary=None, window=DEFAULT_WINDOW):
    """Vectorized per-cycle features of one compiled trace.

    The class-id columns use the trace's
    :meth:`~repro.dta.compiled.CompiledTrace.vocab_ids` remap, so two
    traces interning classes in different orders produce identical
    features for identical pipeline states.  Non-default pipeline specs
    project onto the canonical six-group layout
    (:func:`_canonical_cycle_arrays`), so the feature width is
    spec-invariant.
    """
    window = _validate_window(window)
    if vocabulary is None:
        vocabulary = class_vocabulary()
    ids = compiled.vocab_ids(vocabulary)
    ids, bubble, held = _canonical_cycle_arrays(compiled, ids, vocabulary)
    groups = group_ids(vocabulary)[ids]
    num_cycles = compiled.num_cycles

    ex_muldiv = (
        (groups[:, Stage.EX] == _MULDIV_GROUP_ID)
        & ~bubble[:, Stage.EX]
    )

    columns = [ids.astype(np.float64), groups.astype(np.float64)]
    flags = np.empty((num_cycles, 2 * len(Stage)), dtype=np.float64)
    for stage in Stage:
        flags[:, 2 * int(stage)] = bubble[:, stage]
        flags[:, 2 * int(stage) + 1] = held[:, stage]
    columns.append(flags)
    columns.append(
        np.column_stack([
            compiled.stall.astype(np.float64),
            compiled.redirect.astype(np.float64),
        ])
    )
    columns.append(
        np.column_stack([
            rolling_prev_count(ex_muldiv, window),
            rolling_prev_count(compiled.redirect, window),
        ])
    )
    matrix = np.concatenate(columns, axis=1)
    return FeatureMatrix(matrix, feature_names(window))


class WindowedFeatureExtractor:
    """Vectorized feature extraction over trace windows with carried state.

    Feeding the consecutive windows of one trace (any window sizes)
    produces rows bit-identical to one :func:`extract_features` call over
    the whole trace: all columns except the recent-window counts are
    cycle-local, and the counts are integer sums over at most ``window``
    previous cycles, so carrying the trailing ``window`` EX-mul/div and
    redirect flags across window boundaries reproduces them exactly.
    Stateful — build one extractor per program and :meth:`reset` between
    programs.
    """

    def __init__(self, vocabulary=None, window=DEFAULT_WINDOW):
        if vocabulary is None:
            vocabulary = class_vocabulary()
        self.vocabulary = tuple(vocabulary)
        self.window = _validate_window(window)
        self._group_lookup = group_ids(self.vocabulary)
        self.reset()

    def reset(self):
        self._muldiv_tail = np.zeros(0, dtype=np.int64)
        self._redirect_tail = np.zeros(0, dtype=np.int64)

    def _count_and_carry(self, tail, flags):
        # With a tail of min(window, cycles_so_far) flags, the local
        # lower-bound clamp in rolling_prev_count coincides with the
        # whole-trace one, so the counts over the new rows are exact.
        combined = np.concatenate(
            [tail, np.asarray(flags).astype(np.int64)]
        )
        counts = rolling_prev_count(combined, self.window)[len(tail):]
        carry = combined[max(0, len(combined) - self.window):]
        return counts, carry

    def extract(self, compiled):
        """Feature matrix of one window (a ``CompiledTrace`` or any
        object with the same cycle-matrix surface, e.g. a
        ``repro.stream.TraceWindow``)."""
        ids = compiled.vocab_ids(self.vocabulary)
        ids, bubble, held = _canonical_cycle_arrays(
            compiled, ids, self.vocabulary
        )
        groups = self._group_lookup[ids]
        num_cycles = compiled.num_cycles

        ex_muldiv = (
            (groups[:, Stage.EX] == _MULDIV_GROUP_ID)
            & ~bubble[:, Stage.EX]
        )

        columns = [ids.astype(np.float64), groups.astype(np.float64)]
        flags = np.empty((num_cycles, 2 * len(Stage)), dtype=np.float64)
        for stage in Stage:
            flags[:, 2 * int(stage)] = bubble[:, stage]
            flags[:, 2 * int(stage) + 1] = held[:, stage]
        columns.append(flags)
        columns.append(
            np.column_stack([
                compiled.stall.astype(np.float64),
                compiled.redirect.astype(np.float64),
            ])
        )
        muldiv_counts, self._muldiv_tail = self._count_and_carry(
            self._muldiv_tail, ex_muldiv
        )
        redirect_counts, self._redirect_tail = self._count_and_carry(
            self._redirect_tail, compiled.redirect
        )
        columns.append(np.column_stack([muldiv_counts, redirect_counts]))
        matrix = np.concatenate(columns, axis=1)
        return FeatureMatrix(matrix, feature_names(self.window))

