"""LUT extraction tests: convergence to ground truth, fallback, merging."""

import pytest

from repro.dta.extraction import extract_lut_arrays, merge_luts
from repro.dta.lut import DelayLUT
from repro.paperdata import TABLE2_INSTRUCTION_DELAYS
from repro.sim.trace import Stage
from repro.timing.profiles import BUBBLE_CLASS


class TestExtractionConvergence:
    """The characterised LUT must rediscover the profile's ground truth."""

    @pytest.mark.parametrize("cls,expected", sorted(
        TABLE2_INSTRUCTION_DELAYS.items()
    ))
    def test_table2_classes_converge(self, lut, design, cls, expected):
        delay, stage_name = expected
        assert lut.is_characterized(cls), cls
        assert lut.class_max(cls) == pytest.approx(delay, rel=1e-3)
        assert lut.limiting_stage(cls).name == stage_name

    def test_all_common_classes_characterized(self, lut):
        for cls in ("l.add(i)", "l.and(i)", "l.or(i)", "l.xor(i)",
                    "l.sll(i)", "l.srl(i)", "l.lwz", "l.sw", "l.sfxx(i)",
                    "l.bf", "l.bnf", "l.j", "l.mul(i)", "l.nop",
                    BUBBLE_CLASS):
            assert lut.is_characterized(cls), cls

    def test_entries_match_profile_truth(self, lut, design):
        """Every characterised entry equals the profile's true worst case
        (the directed generator guarantees worst-pattern coverage)."""
        profile = design.profile
        for cls in lut.classes():
            if cls == BUBBLE_CLASS or not lut.is_characterized(cls):
                continue
            truth = profile.true_lut_row(cls)
            for stage in Stage:
                measured = lut.entry(cls, stage)
                assert measured <= truth[stage] + 1e-6, (cls, stage)
        # and the EX entries converge exactly for the heavy hitters
        for cls in ("l.add(i)", "l.mul(i)", "l.lwz", "l.xor(i)"):
            assert lut.entry(cls, Stage.EX) == pytest.approx(
                profile.ex_spec(cls).max_ps, rel=1e-3
            )

    def test_bubble_row(self, lut, design):
        assert lut.entry(BUBBLE_CLASS, Stage.ADR) == pytest.approx(
            design.profile.adr_seq.max_ps
        )
        assert lut.entry(BUBBLE_CLASS, Stage.EX) == pytest.approx(
            design.profile.bubble_delays[Stage.EX]
        )

    def test_occurrence_counts_recorded(self, lut):
        assert lut.occurrences["l.add(i)"] > 100


class TestStaticFallback:
    def test_unknown_class_uses_static(self, lut):
        assert lut.entry("l.never-seen", Stage.EX) == lut.static_period_ps

    def test_under_threshold_uses_static(self, characterization, design):
        run = characterization.runs[0]
        strict = extract_lut_arrays(
            run.dta, run.compiled, design.static_period_ps,
            min_occurrences=10 ** 9,
        )
        assert not strict.is_characterized("l.add(i)")
        assert strict.entry("l.add(i)", Stage.EX) == design.static_period_ps
        # bubbles are exempt from the threshold
        assert strict.is_characterized(BUBBLE_CLASS)

    def test_cycle_count_mismatch_rejected(self, characterization, design):
        run_a = characterization.runs[0]
        run_b = next(
            run for run in characterization.runs
            if run.num_cycles != run_a.num_cycles
        )
        with pytest.raises(ValueError, match="cycles"):
            extract_lut_arrays(run_a.dta, run_b.compiled,
                               design.static_period_ps)


class TestMerging:
    def test_merge_takes_max(self, characterization):
        merged = merge_luts([run.lut for run in characterization.runs])
        for cls in merged.classes():
            for stage in Stage:
                per_run_max = max(
                    run.lut.entries.get(cls, {}).get(stage, 0.0)
                    for run in characterization.runs
                    if run.lut.entries.get(cls, {}).get(
                        stage, run.lut.static_period_ps
                    ) < run.lut.static_period_ps
                    or cls in run.lut.entries
                )
                if per_run_max and per_run_max < merged.static_period_ps:
                    assert merged.entries[cls][stage] >= per_run_max - 1e6

    def test_merge_accumulates_occurrences(self, characterization):
        merged = merge_luts([run.lut for run in characterization.runs])
        total = sum(
            run.lut.occurrences.get("l.add(i)", 0)
            for run in characterization.runs
        )
        assert merged.occurrences["l.add(i)"] == total

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError):
            merge_luts([])


class TestLutContainer:
    def test_json_roundtrip(self, lut):
        clone = DelayLUT.from_json(lut.to_json())
        assert clone.static_period_ps == lut.static_period_ps
        assert clone.characterized == lut.characterized
        for cls in lut.classes():
            for stage in Stage:
                assert clone.entry(cls, stage) == lut.entry(cls, stage)

    def test_render_contains_table2_rows(self, lut):
        text = lut.render(classes=["l.mul(i)", "l.j"])
        assert "l.mul(i)" in text
        assert "1899" in text
        assert "ADR" in text

    def test_bubble_period(self, lut, design):
        assert lut.bubble_period_ps == pytest.approx(
            design.profile.adr_seq.max_ps
        )
