"""CSV export of figure data series.

Each helper returns the plottable series behind one of the paper's figures
as ``(header, rows)`` and can write it as CSV — so the reproduction's
figures can be regenerated in any plotting tool without re-running the
flows.
"""

import csv
import io

from repro.sim.trace import Stage
from repro.utils.stats import Histogram


def _to_csv(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def fig5_series(dta_result, num_bins=40, high=2100.0):
    """Fig. 5 histogram series: (bin_center_ps, cycle_count)."""
    histogram = Histogram(low=0.0, high=high, num_bins=num_bins)
    histogram.extend(dta_result.cycle_max.tolist())
    rows = list(zip(
        (round(c, 1) for c in histogram.bin_centers()), histogram.counts
    ))
    return ("delay_ps", "cycles"), rows


def fig6_series(dta_result):
    """Fig. 6 series: (stage, limiting_share)."""
    shares = dta_result.limiting_stage_shares()
    rows = [(stage.name, round(shares[stage], 5)) for stage in Stage]
    return ("stage", "share"), rows


def fig7_series(stage_samples, num_bins=25, high=2000.0):
    """Fig. 7 series: one histogram column per stage."""
    histograms = {}
    for stage, values in stage_samples.items():
        histogram = Histogram(low=0.0, high=high, num_bins=num_bins)
        histogram.extend(values)
        histograms[stage] = histogram
    centers = next(iter(histograms.values())).bin_centers()
    header = ["delay_ps"] + [stage.name for stage in Stage]
    rows = []
    for index, center in enumerate(centers):
        rows.append(
            [round(center, 1)]
            + [histograms[stage].counts[index] for stage in Stage]
        )
    return tuple(header), rows


def fig8_series(results, static_period_ps):
    """Fig. 8 series: per-benchmark conventional vs. dynamic frequency."""
    rows = []
    for result in sorted(results, key=lambda r: r.program_name):
        rows.append((
            result.program_name,
            round(1e6 / static_period_ps, 1),
            round(result.effective_frequency_mhz, 1),
            round(result.speedup_percent, 2),
        ))
    return (
        ("benchmark", "conventional_mhz", "dynamic_mhz", "speedup_percent"),
        rows,
    )


def sweep_series(labels, batch_results):
    """Batch-sweep series: one row per (configuration, benchmark).

    ``batch_results`` is the ``[config][program]`` grid of
    ``Session.evaluate_results``; ``labels`` names each configuration row.
    New code should pass an evaluation frame to
    :func:`sweep_frame_series` instead.
    """
    rows = []
    for label, results in zip(labels, batch_results):
        for result in results:
            rows.append((
                label,
                result.program_name,
                round(result.average_period_ps, 2),
                round(result.effective_frequency_mhz, 1),
                round(result.speedup_percent, 2),
                len(result.violations),
            ))
    return (
        ("config", "benchmark", "avg_period_ps", "dynamic_mhz",
         "speedup_percent", "violations"),
        rows,
    )


def sweep_frame_series(frame):
    """Batch-sweep series from an evaluation
    :class:`~repro.api.frame.ResultFrame`: one row per
    (configuration, benchmark), in frame (config-major) order — the same
    rows :func:`sweep_series` produced from the legacy grid."""
    rows = [
        (
            row["config"],
            row["program"],
            round(row["average_period_ps"], 2),
            round(row["effective_frequency_mhz"], 1),
            round(row["speedup_percent"], 2),
            row["num_violations"],
        )
        for row in frame.iter_rows()
    ]
    return (
        ("config", "benchmark", "avg_period_ps", "dynamic_mhz",
         "speedup_percent", "violations"),
        rows,
    )


def write_csv(path, header, rows):
    """Write one series to a CSV file; returns the written text."""
    text = _to_csv(header, rows)
    with open(path, "w", newline="") as handle:
        handle.write(text)
    return text


def export_all(directory, dta_result, mul_samples, results,
               static_period_ps):
    """Write every figure series into ``directory``; returns the paths."""
    import pathlib

    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written = {}
    for name, (header, rows) in {
        "fig5": fig5_series(dta_result),
        "fig6": fig6_series(dta_result),
        "fig7": fig7_series(mul_samples),
        "fig8": fig8_series(results, static_period_ps),
    }.items():
        path = directory / f"{name}.csv"
        write_csv(path, header, rows)
        written[name] = path
    return written
