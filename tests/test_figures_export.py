"""Figure-data CSV export tests."""

import csv

from repro.dta.histograms import class_stage_delays
from repro.flow.figures import (
    export_all,
    fig5_series,
    fig6_series,
    fig7_series,
    fig8_series,
    write_csv,
)
from repro.clocking.policies import InstructionLutPolicy
from repro.sim.trace import Stage
from repro.workloads import get_kernel


class TestSeries:
    def test_fig5(self, characterization):
        header, rows = fig5_series(characterization.runs[0].dta)
        assert header == ("delay_ps", "cycles")
        assert sum(count for _, count in rows) > 0

    def test_fig6(self, characterization):
        header, rows = fig6_series(characterization.runs[0].dta)
        assert [row[0] for row in rows] == [s.name for s in Stage]
        assert abs(sum(row[1] for row in rows) - 1.0) < 1e-4

    def test_fig7(self, characterization):
        run = characterization.run_named("matmult")
        samples = class_stage_delays(run.dta, run.compiled, "l.mul(i)")
        header, rows = fig7_series(samples)
        assert header[0] == "delay_ps"
        assert len(header) == 7

    def test_fig8(self, design, evaluate_one, lut):
        results = [evaluate_one(
            get_kernel("fib").program(), InstructionLutPolicy(lut),
            check_safety=False,
        )]
        header, rows = fig8_series(results, design.static_period_ps)
        assert rows[0][0] == "fib"
        assert rows[0][2] > rows[0][1]   # dynamic beats conventional


class TestWriting:
    def test_write_csv(self, tmp_path, characterization):
        header, rows = fig6_series(characterization.runs[0].dta)
        path = tmp_path / "fig6.csv"
        write_csv(path, header, rows)
        with open(path) as handle:
            parsed = list(csv.reader(handle))
        assert parsed[0] == list(header)
        assert len(parsed) == len(rows) + 1

    def test_export_all(self, tmp_path, characterization, design,
                        evaluate_one, lut):
        run = characterization.run_named("matmult")
        samples = class_stage_delays(run.dta, run.compiled, "l.mul(i)")
        results = [evaluate_one(
            get_kernel("fib").program(), InstructionLutPolicy(lut),
            check_safety=False,
        )]
        written = export_all(
            tmp_path / "figures", run.dta, samples, results,
            design.static_period_ps,
        )
        assert set(written) == {"fig5", "fig6", "fig7", "fig8"}
        for path in written.values():
            assert path.exists()
