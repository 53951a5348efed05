"""Table II — dynamic instruction delay worst cases.

Regenerates the per-instruction worst-case dynamic delays and their
limiting pipeline stage from the characterisation flow (gate-level
simulation -> DTA -> extraction), exactly the paper's methodology.
"""

from conftest import publish

from repro.dta.extraction import extract_lut_arrays
from repro.flow.experiment import ExperimentReport
from repro.paperdata import TABLE2_INSTRUCTION_DELAYS
from repro.utils.tables import format_table


def _extract(characterization, design):
    run = characterization.runs[-1]
    return extract_lut_arrays(
        run.dta, run.compiled, design.static_period_ps, min_occurrences=1
    )


def test_table2_instruction_delays(benchmark, characterization, design, lut):
    benchmark(_extract, characterization, design)   # extraction cost

    report = ExperimentReport(
        "Table II", "Dynamic instruction delay worst cases [ps]"
    )
    rows = []
    for cls, (paper_delay, paper_stage) in sorted(
        TABLE2_INSTRUCTION_DELAYS.items()
    ):
        measured_delay = lut.class_max(cls)
        measured_stage = lut.limiting_stage(cls).name
        report.add(f"{cls} max delay", paper_delay, measured_delay,
                   unit=" ps")
        rows.append((
            cls, f"{measured_delay:.0f}", measured_stage,
            f"{paper_delay:.0f}", paper_stage,
            "OK" if measured_stage == paper_stage else "MISMATCH",
        ))
    table = format_table(
        ["Instruction", "Measured [ps]", "Stage", "Paper [ps]",
         "Paper stage", "Stage match"],
        rows,
        title="Table II — dynamic instruction delay worst cases",
    )
    publish(
        "table2_instruction_delays",
        report.render() + "\n\n" + table + "\n\nFull LUT:\n"
        + lut.render(),
    )

    assert report.max_abs_deviation_percent() < 2.0
    for row in rows:
        assert row[5] == "OK", row
