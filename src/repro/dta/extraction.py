"""Per-instruction worst-case delay extraction (paper's Matlab step).

Combines the DTA per-cycle stage delays with the compiled trace: every
stage-group delay in every cycle is attributed to the timing class of the
instruction *driving* that group in that cycle (the same driver mapping the
excitation model and the clock controller use — see
:func:`repro.timing.excitation.driver_view`), and per-class maxima across
all occurrences become the delay-prediction LUT entries:

    d_I^s = max over t where class(driver_s(t)) == I of d_s[t]

Classes observed fewer than ``min_occurrences`` times in EX keep the static
worst-case period (Sec. IV-A: "Instructions where no accurate maximum delay
characterization could be performed ... are represented ... with the
worst-case clock period timings from static timing analysis").
"""

from repro.dta.lut import DEFAULT_MIN_OCCURRENCES, DelayLUT
from repro.sim.trace import Stage
from repro.timing.excitation import driver_view
from repro.timing.profiles import BUBBLE_CLASS


def attribute_cycle(record):
    """Driver timing class of every stage group in one cycle."""
    classes = {}
    for stage in Stage:
        view = driver_view(record, stage)
        classes[stage] = (
            view.timing_class if view.timing_class is not None
            else BUBBLE_CLASS
        )
    return classes


def extract_lut_arrays(dta_result, compiled, static_period_ps,
                       min_occurrences=DEFAULT_MIN_OCCURRENCES, source=""):
    """Build the :class:`DelayLUT` from one characterisation run.

    ``dta_result`` is the run's :class:`~repro.dta.gatesim.DtaResult`;
    ``compiled`` is the compiled trace of the same run, whose class-id
    matrix *is* :func:`attribute_cycle` in bulk (the ADR column already
    keys on the EX occupant).  The per-class, per-stage maxima reduce to
    one ``np.maximum.at`` per column and the EX occurrence counts to a
    ``bincount``; classes seen fewer than ``min_occurrences`` times in EX
    are not characterised.

    Non-default pipeline specs fold their columns onto the six canonical
    :class:`Stage` groups (several decode stages all accumulate into the
    ``DC`` maxima); groups a spec does not implement stay unobserved and
    fall back to the static period, so the LUT schema is spec-invariant.
    """
    import numpy as np

    if dta_result.num_cycles != compiled.num_cycles:
        raise ValueError(
            f"DTA covers {dta_result.num_cycles} cycles but the trace has "
            f"{compiled.num_cycles}"
        )

    spec = compiled.pipeline_spec
    class_names = compiled.class_names
    num_classes = len(class_names)
    maxima = np.zeros((num_classes, len(Stage)), dtype=float)
    for column, group in enumerate(spec.group_of):
        np.maximum.at(
            maxima[:, group],
            compiled.class_ids[:, column],
            np.asarray(dta_result.stage_delays[column], dtype=float),
        )

    ex_counts_array = np.bincount(
        compiled.class_ids[:, spec.ex_index], minlength=num_classes
    )
    # every class in the compiled intern table was observed in some stage
    entries = {}
    for index, cls in enumerate(class_names):
        entries[cls] = {
            stage: (
                float(maxima[index, stage])
                if maxima[index, stage] > 0.0 else static_period_ps
            )
            for stage in Stage
        }
    ex_counts = {
        class_names[index]: int(count)
        for index, count in enumerate(ex_counts_array)
        if count > 0
    }

    characterized = {
        cls for cls, count in ex_counts.items() if count >= min_occurrences
    }
    if BUBBLE_CLASS in ex_counts:
        characterized.add(BUBBLE_CLASS)

    return DelayLUT(
        static_period_ps=static_period_ps,
        entries=entries,
        occurrences=ex_counts,
        characterized=characterized,
        min_occurrences=min_occurrences,
        source=source,
    )


def merge_luts(luts):
    """Merge LUTs from several characterisation runs (max per entry).

    The paper characterises with a mix of hand-written kernels and
    semi-random programs; merging their per-run LUTs is equivalent to
    extracting from the concatenated trace.
    """
    if not luts:
        raise ValueError("need at least one LUT to merge")
    static = max(lut.static_period_ps for lut in luts)
    min_occ = max(lut.min_occurrences for lut in luts)
    merged_entries = {}
    merged_counts = {}
    for lut in luts:
        for cls, row in lut.entries.items():
            target = merged_entries.setdefault(cls, {})
            for stage, delay in row.items():
                # static-period fillers must not mask measured entries
                if delay >= lut.static_period_ps and stage not in target:
                    target[stage] = delay
                elif delay < lut.static_period_ps:
                    measured = target.get(stage)
                    if (
                        measured is None
                        or measured >= lut.static_period_ps
                        or delay > measured
                    ):
                        target[stage] = delay
        for cls, count in lut.occurrences.items():
            merged_counts[cls] = merged_counts.get(cls, 0) + count

    characterized = {
        cls for cls, count in merged_counts.items() if count >= min_occ
    }
    if BUBBLE_CLASS in merged_counts:
        characterized.add(BUBBLE_CLASS)
    sources = "+".join(sorted({lut.source for lut in luts if lut.source}))
    return DelayLUT(
        static_period_ps=static,
        entries=merged_entries,
        occurrences=merged_counts,
        characterized=characterized,
        min_occurrences=min_occ,
        source=sources,
    )
