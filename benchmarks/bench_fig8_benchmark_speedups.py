"""Fig. 8 — per-benchmark effective clock frequency.

Regenerates the paper's headline figure: conventional clocking at the STA
limit (494 MHz) vs. instruction-based dynamic clock adjustment, per
benchmark and averaged (+38 % -> 680 MHz in the paper), plus the give-up
relative to the genie bound (Sec. IV-B).
"""

from conftest import publish

from repro.clocking.policies import GeniePolicy
from repro.flow.evaluate import (
    SweepConfig,
    average_frequency_mhz,
    average_speedup_percent,
)
from repro.flow.experiment import ExperimentReport
from repro.flow.reporting import render_suite_results
from repro.paperdata import (
    DYNAMIC_FREQUENCY_MHZ,
    DYNAMIC_SPEEDUP_PERCENT,
    GIVE_UP_PERCENT,
    STATIC_FREQUENCY_MHZ,
)
from repro.workloads.suite import benchmark_suite


def _genie_sweep(session):
    configs = [SweepConfig(
        policy=lambda: GeniePolicy(session.design.excitation),
        check_safety=False, label="genie",
    )]
    return session.evaluate_results(benchmark_suite(), configs)[0]


def test_fig8_benchmark_speedups(benchmark, session, design, suite_results,
                                 store):
    genie_results = benchmark(_genie_sweep, session)

    lut_speedup = average_speedup_percent(suite_results)
    lut_frequency = average_frequency_mhz(suite_results)
    genie_speedup = average_speedup_percent(genie_results)
    give_up = genie_speedup - lut_speedup

    report = ExperimentReport(
        "Fig. 8", "Effective clock frequency with dynamic clock adjustment"
    )
    report.add("conventional frequency", STATIC_FREQUENCY_MHZ,
               1e6 / design.static_period_ps, unit=" MHz")
    report.add("dynamic frequency (avg)", DYNAMIC_FREQUENCY_MHZ,
               lut_frequency, unit=" MHz")
    report.add("average speedup", DYNAMIC_SPEEDUP_PERCENT, lut_speedup,
               unit=" %")
    report.add("give-up vs. genie", GIVE_UP_PERCENT, give_up, unit=" %")
    report.note(
        "suite: CoreMark-like composite + BEEBS-like kernels "
        "(hand-written equivalents, see ARCHITECTURE.md \"Model "
        "substitutions\")"
    )

    table = render_suite_results(
        suite_results, design.static_period_ps,
        title="Fig. 8 — per-benchmark effective clock frequency @ 0.70 V",
    )
    publish(
        "fig8_benchmark_speedups",
        report.render() + "\n\n" + table
        + f"\n  artifact store: {store.stats.summary()}",
    )

    assert abs(lut_speedup - DYNAMIC_SPEEDUP_PERCENT) < 8.0
    assert abs(lut_frequency - DYNAMIC_FREQUENCY_MHZ) < 45.0
    assert 0 < give_up < 20.0
    for result in suite_results:
        assert result.speedup_percent > 20.0, result.program_name
