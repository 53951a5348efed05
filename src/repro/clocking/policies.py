"""Clock-period prediction policies.

A policy decides the clock period of every cycle of a compiled trace:
``periods_for(compiled_trace)`` returns one period per cycle as a NumPy
array, driven by the :class:`~repro.dta.compiled.CompiledTrace` class-id
matrix.  All policies are *predictive*: a cycle's period depends only on
information available in that cycle (which decoded instructions are in
flight) and, for the learned policy, the cycles before it — never on
measured outcomes, except the genie oracle, which exists to compute the
paper's theoretical upper bound.

LUT policies gather from a class×stage table built off the LUT's dense
matrix (:meth:`~repro.dta.lut.DelayLUT.dense`, built once per LUT; the
ex-only floor and the two-class fast period reduce over it too), one
stage column at a time (:func:`fold_stages`); the genie reduces to a
row-wise max of the compiled delay matrix.  The per-record reference
decision of each policy lives in the test oracle.
"""

import numpy as np

from repro.sim.trace import Stage


def fold_stages(columns, class_ids, combine):
    """Fold ``combine`` over the stages of a cycle × stage gather.

    ``columns[s]`` is a per-class vector for stage ``s``; the result's
    cycle ``t`` is ``combine`` over every stage ``s`` of
    ``columns[s][class_ids[t, s]]``.  One 1-D ``take`` per stage column,
    folded in place, is several times cheaper than a ``(cycles,
    stages)`` fancy gather reduced over its stage axis, and equal to it
    bit for bit when ``combine`` is exact (``np.maximum``,
    ``np.logical_or``).  ``class_ids`` may be a trace's, a window's
    slice of it, or the narrow int ids of a store-rehydrated trace.
    """
    folded = columns[0].take(class_ids[:, 0])
    for stage in range(1, class_ids.shape[1]):
        combine(folded, columns[stage].take(class_ids[:, stage]),
                out=folded)
    return folded


def _worst(entries):
    """Largest of ``entries`` and 0, skipping NaN entries as a running
    ``max(worst, entry)`` from 0 does."""
    return float(np.fmax.reduce(entries.ravel(), initial=0.0))


class StaticClockPolicy:
    """Conventional synchronous clocking at the STA period (Eq. 1)."""

    name = "static"

    def __init__(self, period_ps):
        if period_ps <= 0:
            raise ValueError(f"invalid static period {period_ps}")
        self.period_ps = period_ps

    def periods_for(self, compiled_trace):
        return np.full(compiled_trace.num_cycles, float(self.period_ps))


class InstructionLutPolicy:
    """The paper's technique (Fig. 1, Eq. 2): monitor the instruction in
    every pipeline stage and take the maximum of their LUT delays."""

    name = "instruction-lut"

    def __init__(self, lut):
        self.lut = lut

    def periods_for(self, compiled_trace):
        table = compiled_trace.class_table(self.lut)
        return fold_stages(table.T, compiled_trace.class_ids, np.maximum)


class ExOnlyLutPolicy:
    """Simplified monitor (paper Sec. IV-A): track only the EX-stage
    instruction, with fixed floors guaranteeing the other stage groups.

    The EX occupant also determines the ADR group in our microarchitecture
    (next-pc logic), so monitoring EX covers the two groups the paper finds
    limiting in 100 % of the significant cycles; FE/DC/CTRL/WB are covered
    by a static floor — the worst characterised entry of each group.
    """

    name = "ex-only-lut"

    def __init__(self, lut):
        self.lut = lut
        self.floor_ps = self._static_floor()

    def _static_floor(self):
        # the characterised rows only: the others are never predicted for
        # these stages anyway
        _, matrix = self.lut.dense()
        floor_stages = [Stage.FE, Stage.DC, Stage.CTRL, Stage.WB]
        floor = _worst(matrix[:-1, floor_stages])
        return floor if floor > 0 else self.lut.static_period_ps

    def periods_for(self, compiled_trace):
        ex = getattr(compiled_trace, "ex_column", int(Stage.EX))
        ex_ids = compiled_trace.class_ids[:, ex]
        # the LUT's class x stage table, shared with InstructionLutPolicy:
        # column 0 is the ADR group (every spec starts with it), column
        # ``ex`` the EX group
        table = compiled_trace.class_table(self.lut)
        return np.maximum(
            np.maximum(table[ex_ids, ex], table[ex_ids, 0]), self.floor_ps
        )


class TwoClassPolicy:
    """Two-speed baseline in the spirit of application-adaptive
    guard-banding [8]: instructions are split into a *slow* and a *fast*
    class and the clock toggles between just two periods.

    By default the slow set contains the multiply/divide classes plus
    everything that fell back to static characterisation.
    """

    name = "two-class"

    DEFAULT_SLOW = ("l.mul(i)", "l.div")

    def __init__(self, lut, slow_classes=None):
        self.lut = lut
        if slow_classes is None:
            slow_classes = self.DEFAULT_SLOW
        self.slow_classes = set(slow_classes)
        self.slow_period_ps = lut.static_period_ps
        self.fast_period_ps = self._fast_period()

    def _fast_period(self):
        """Worst LUT entry over every fast, characterised class and every
        stage — the fast period must be safe for anything non-slow
        (uncharacterised classes force the slow period at runtime)."""
        index, matrix = self.lut.dense()
        fast = [row for cls, row in index.items()
                if cls not in self.slow_classes]
        worst = _worst(matrix[fast])
        return worst if worst > 0 else self.lut.static_period_ps

    def _is_slow(self, cls):
        return (
            cls in self.slow_classes
            or not self.lut.is_characterized(cls)
        )

    def periods_for(self, compiled_trace):
        slow = np.array(
            [self._is_slow(cls) for cls in compiled_trace.class_names],
            dtype=bool,
        )
        class_ids = compiled_trace.class_ids
        any_slow = fold_stages(
            [slow] * class_ids.shape[1], class_ids, np.logical_or
        )
        return np.where(
            any_slow, float(self.slow_period_ps), float(self.fast_period_ps)
        )


class LearnedPolicy:
    """A trained period predictor (ML-DFS) deployed as a clock policy.

    Wraps a :class:`~repro.ml.model.LearnedModel` — a decision-tree
    envelope regressor or two-level logistic classifier fitted on
    per-cycle pipeline features and calibrated against genie ground
    truth (see :mod:`repro.ml.train`).  Predictions are *normalized*
    (fractions of the static period), so the policy scales them back by
    the design's static period at deployment.

    The whole feature matrix is extracted from the compiled trace in one
    pass (:func:`~repro.ml.features.extract_features`).  Like the LUT
    policies, the predictor never sees measured outcomes — only the
    in-flight instruction context and its recent history.
    """

    name = "learned"

    def __init__(self, model, static_period_ps):
        if static_period_ps <= 0:
            raise ValueError(f"invalid static period {static_period_ps}")
        self.model = model
        self.static_period_ps = float(static_period_ps)

    def periods_for(self, compiled_trace):
        from repro.ml.features import extract_features

        features = extract_features(
            compiled_trace,
            vocabulary=self.model.vocabulary,
            window=self.model.window,
        )
        normalized = self.model.predict_normalized(features.matrix)
        return normalized * self.static_period_ps


class GeniePolicy:
    """A-posteriori oracle: per-cycle minimum safe period (Sec. IV-A).

    Uses the excitation model's measured delays, i.e. knowledge a real
    predictive controller cannot have.  Only used to compute the
    theoretical upper bound on the gains (the paper's 50 %).  It reads
    the trace's own delay matrix, so a trace compiled at another
    operating point is rejected with :class:`ValueError`.
    """

    name = "genie"

    def __init__(self, excitation):
        self.excitation = excitation

    def _same_operating_point(self, compiled_trace):
        """Excitation models are pure functions of (variant, voltage), so
        equal operating points yield identical delay matrices.  Pipeline
        specs extend the trace's operating point with a digest but do not
        change the excitation, so only the first two elements matter:
        the genie reads the trace's own ground-truth matrix.  The
        comparison uses the trace's recorded operating point, so traces
        rehydrated from the artifact store (which carry a delay matrix but
        no live excitation model) validate the same way."""
        if compiled_trace.excitation is self.excitation:
            return True
        point = compiled_trace.operating_point
        return point is not None and tuple(point[:2]) == (
            self.excitation.profile.variant.value,
            self.excitation.library.voltage,
        )

    def periods_for(self, compiled_trace):
        if not self._same_operating_point(compiled_trace):
            raise ValueError(
                "genie policy at operating point "
                f"({self.excitation.profile.variant.value}, "
                f"{self.excitation.library.voltage}) cannot evaluate a "
                f"trace compiled at {compiled_trace.operating_point}: it "
                "reads the trace's own excited delays"
            )
        return compiled_trace.cycle_max_delays()
