"""Fig. 7 — per-stage dynamic delay histograms for l.mul.

Regenerates the six per-stage histograms for the multiply instruction: the
EX delay sits close to the static maximum with a ~300 ps data-dependent
spread, while every other stage is significantly lower.
"""

from conftest import publish

from repro.dta.histograms import class_stage_delays
from repro.flow.experiment import ExperimentReport
from repro.paperdata import LMUL_EX_SPREAD_PS, TABLE2_INSTRUCTION_DELAYS
from repro.sim.trace import Stage
from repro.utils.stats import Histogram


def _collect(characterization):
    samples = {stage: [] for stage in Stage}
    for run in characterization.runs:
        run_samples = class_stage_delays(run.dta, run.compiled, "l.mul(i)")
        for stage in Stage:
            samples[stage].extend(run_samples[stage])
    return samples


def test_fig7_lmul_histograms(benchmark, characterization):
    samples = benchmark(_collect, characterization)

    ex_delays = samples[Stage.EX]
    ex_max = max(ex_delays)
    ex_spread = ex_max - min(ex_delays)
    paper_mul_max = TABLE2_INSTRUCTION_DELAYS["l.mul(i)"][0]

    report = ExperimentReport(
        "Fig. 7", "Per-stage dynamic delays of l.mul"
    )
    report.add("EX worst case", paper_mul_max, ex_max, unit=" ps")
    report.add("EX data-dependent spread", LMUL_EX_SPREAD_PS, ex_spread,
               unit=" ps")
    report.note(
        "non-EX stages collapse to their fixed worst cases in our model "
        "(documented simplification, ARCHITECTURE.md \"Model "
        "substitutions\")"
    )

    lines = [report.render(), ""]
    for stage in Stage:
        values = samples[stage]
        lines.append(
            f"--- {stage.name}: {len(values)} occurrences, "
            f"max {max(values):.0f} ps"
        )
        histogram = Histogram(low=0.0, high=2000.0, num_bins=20)
        histogram.extend(values)
        lines.append(histogram.render(width=36))
        lines.append("")
    publish("fig7_lmul_histograms", "\n".join(lines))

    assert abs(ex_max - paper_mul_max) < 5.0
    assert abs(ex_spread - LMUL_EX_SPREAD_PS) < 60.0
    for stage in Stage:
        if stage != Stage.EX:
            assert max(samples[stage]) < ex_max - 500.0, stage
