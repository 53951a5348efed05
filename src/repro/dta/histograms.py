"""Histogram builders for the paper's Fig. 5 and Fig. 7."""

import numpy as np

from repro.sim.trace import Stage
from repro.utils.stats import Histogram


def fig5_histogram(dta_result, num_bins=40, high=None):
    """Histogram of per-cycle dynamic maximum delay over all stages.

    This is the paper's Fig. 5; its mean is the genie-aided bound on the
    average clock period.
    """
    return dta_result.delay_histogram(num_bins=num_bins, high=high)


def class_stage_delays(dta_result, compiled, timing_class):
    """Per-stage delay samples attributed to one timing class.

    For every cycle in which ``timing_class`` drives a stage column (the
    compiled trace's class attribution, as in LUT extraction), collect
    that column's measured delay under the column's canonical
    :class:`Stage` group, in cycle order.  This reproduces the per-stage
    distributions of Fig. 7 (shown there for ``l.mul``).
    """
    names = compiled.class_names
    class_id = names.index(timing_class) if timing_class in names else -1
    driven = compiled.class_ids == class_id
    delays = np.column_stack([
        dta_result.stage_delays[column] for column in range(driven.shape[1])
    ])
    group_of = np.asarray(compiled.pipeline_spec.group_of)
    samples = {}
    for stage in Stage:
        columns = group_of == stage
        samples[stage] = delays[:, columns][driven[:, columns]].tolist()
    return samples


def fig7_histograms(dta_result, compiled, timing_class="l.mul(i)",
                    num_bins=25, high=None):
    """Per-stage delay histograms for one instruction class (Fig. 7)."""
    samples = class_stage_delays(dta_result, compiled, timing_class)
    if high is None:
        peak = max(
            (max(values) for values in samples.values() if values),
            default=dta_result.sim_period_ps,
        )
        high = float(np.ceil(peak / 100.0) * 100.0)
    histograms = {}
    for stage, values in samples.items():
        histogram = Histogram(low=0.0, high=high, num_bins=num_bins)
        histogram.extend(values)
        histograms[stage] = histogram
    return histograms
