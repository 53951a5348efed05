"""Synthetic netlist, STA, timing-wall and SDF tests."""

import pytest

from repro.isa.classes import all_timing_classes
from repro.sim.trace import Stage
from repro.timing.netlist import SyntheticNetlist
from repro.timing.profiles import DesignVariant, load_profile
from repro.timing.sdf import SdfError, parse_sdf, write_sdf
from repro.timing.sta import minimum_period, run_sta
from repro.timing.wall import compare_walls, wall_profile


@pytest.fixture(scope="module")
def optimized_netlist():
    return SyntheticNetlist(load_profile(DesignVariant.CRITICAL_RANGE))


@pytest.fixture(scope="module")
def conventional_netlist():
    return SyntheticNetlist(load_profile(DesignVariant.CONVENTIONAL))


class TestNetlistConstruction:
    def test_sta_equals_profile_static(self, optimized_netlist,
                                       conventional_netlist):
        assert minimum_period(optimized_netlist) == 2026.0
        assert minimum_period(conventional_netlist) == pytest.approx(1859.0)

    def test_critical_path_is_multiplier(self, optimized_netlist):
        critical = max(optimized_netlist.paths, key=lambda p: p.delay_ps)
        assert critical.stage == Stage.EX
        assert critical.timing_class == "l.mul(i)"

    def test_group_max_above_dynamic_worst(self, optimized_netlist):
        """STA pessimism: topological max exceeds the dynamic worst case."""
        profile = optimized_netlist.profile
        for cls in all_timing_classes():
            group_max = optimized_netlist.group_max(Stage.EX, cls)
            assert group_max >= profile.ex_spec(cls).max_ps

    def test_deterministic_generation(self):
        profile = load_profile(DesignVariant.CRITICAL_RANGE)
        a = SyntheticNetlist(profile, seed=5)
        b = SyntheticNetlist(profile, seed=5)
        assert [p.delay_ps for p in a.paths] == [p.delay_ps for p in b.paths]

    def test_seed_changes_population(self):
        profile = load_profile(DesignVariant.CRITICAL_RANGE)
        a = SyntheticNetlist(profile, seed=5)
        b = SyntheticNetlist(profile, seed=6)
        assert [p.delay_ps for p in a.paths] != [p.delay_ps for p in b.paths]

    def test_endpoints_per_stage(self, optimized_netlist):
        for stage in Stage:
            endpoints = optimized_netlist.endpoints_for(stage)
            assert len(endpoints) == 3
            for endpoint in endpoints:
                assert abs(endpoint.skew_ps) <= 30.0
                assert endpoint.setup_ps > 0

    def test_unknown_group_rejected(self, optimized_netlist):
        with pytest.raises(KeyError):
            optimized_netlist.group_max(Stage.EX, "no-such-class")


class TestSta:
    def test_meets_timing_at_sta_period(self, optimized_netlist):
        report = run_sta(optimized_netlist)
        assert report.meets_timing
        assert report.num_violations == 0
        assert report.critical_delay_ps == 2026.0

    def test_violations_below_sta_period(self, optimized_netlist):
        report = run_sta(optimized_netlist, period_ps=1500.0)
        assert not report.meets_timing
        assert report.num_violations > 0
        assert report.worst_slack_ps == pytest.approx(1500.0 - 2026.0)

    def test_stage_worst_covers_all_stages(self, optimized_netlist):
        report = run_sta(optimized_netlist)
        assert set(report.stage_worst) == set(Stage)

    def test_summary_renders(self, optimized_netlist):
        text = run_sta(optimized_netlist).summary()
        assert "WNS" in text and "EX" in text


class TestTimingWall:
    def test_conventional_has_wall(self, conventional_netlist,
                                   optimized_netlist):
        conventional, optimized = compare_walls(
            conventional_netlist, optimized_netlist
        )
        # Fig. 3: the conventional flow bunches paths near the clock
        # constraint; critical-range optimisation pushes them down
        assert (
            conventional.near_critical_fraction
            > 5 * optimized.near_critical_fraction
        )
        assert optimized.short_fraction > conventional.short_fraction
        assert optimized.median_delay_ps < conventional.median_delay_ps

    def test_summary_text(self, optimized_netlist):
        assert "paths" in wall_profile(optimized_netlist).summary()


class TestSdf:
    def test_roundtrip(self, optimized_netlist):
        text = write_sdf(optimized_netlist)
        paths, endpoints = parse_sdf(text)
        assert len(paths) == optimized_netlist.num_paths
        assert len(endpoints) == len(optimized_netlist.endpoints)
        original = {(p.name, p.delay_ps) for p in optimized_netlist.paths}
        parsed = {(p.name, p.delay_ps) for p in paths}
        assert original == parsed

    def test_endpoint_metadata_roundtrip(self, optimized_netlist):
        text = write_sdf(optimized_netlist)
        _, endpoints = parse_sdf(text)
        original = {
            (e.name, e.stage, round(e.skew_ps, 2))
            for e in optimized_netlist.endpoints
        }
        parsed = {(e.name, e.stage, e.skew_ps) for e in endpoints}
        assert original == parsed

    def test_malformed_rejected(self):
        with pytest.raises(SdfError):
            parse_sdf("not sdf at all")
        with pytest.raises(SdfError):
            parse_sdf("(DELAYFILE (SDFVERSION))")


class TestLazyNetlist:
    """``ProcessorDesign.netlist`` is built on first use: evaluation
    never reads it, so a warm sweep never pays for the path
    population."""

    #: sha256 of the crc32 characterisation LUT JSON per variant,
    #: recorded while the netlist was still built by ``build_design``.
    CRC32_LUT_SHA256 = {
        "critical_range": "e7ff2fb74e9628e907f9232a95b2c848"
                          "320a72e98bf4b86768c787613e3d81cc",
        "conventional": "101f7777bc5cbc1b3c3b6598bb2957c3"
                        "68e063b550dfe4bbc9cb6d232bdbe70b",
    }

    @staticmethod
    def _fresh(variant):
        """An unshared design (``build_design`` caches per process)."""
        import dataclasses

        from repro.timing.design import build_design

        return dataclasses.replace(build_design(variant))

    def test_build_design_leaves_netlist_unbuilt(self):
        design = self._fresh(DesignVariant.CRITICAL_RANGE)
        assert design.static_period_ps == 2026.0
        assert design.excitation is not None
        assert "netlist" not in vars(design)

    def test_netlist_built_once_from_profile_and_seed(self):
        design = self._fresh(DesignVariant.CRITICAL_RANGE)
        netlist = design.netlist
        assert design.netlist is netlist
        reference = SyntheticNetlist(design.profile, seed=design.seed)
        assert ([p.delay_ps for p in netlist.paths]
                == [p.delay_ps for p in reference.paths])

    @pytest.mark.parametrize("variant", list(DesignVariant))
    @pytest.mark.parametrize("voltage", [0.70, 0.90])
    def test_sta_period_from_netlist_equals_static(self, variant, voltage):
        from repro.timing.design import build_design

        design = build_design(variant, voltage=voltage)
        assert design.sta_period_from_netlist_ps == design.static_period_ps

    @pytest.mark.parametrize("variant", list(DesignVariant))
    def test_characterisation_builds_it_and_lut_bytes_unchanged(self,
                                                                variant):
        import hashlib

        from repro.flow.characterize import characterize_program
        from repro.workloads import get_kernel

        design = self._fresh(variant)
        lut, _, _ = characterize_program(get_kernel("crc32").program(),
                                         design)
        assert "netlist" in vars(design)
        digest = hashlib.sha256(lut.to_json().encode()).hexdigest()
        assert digest == self.CRC32_LUT_SHA256[variant.value]

    def test_sta_command_builds_it(self, capsys):
        from repro.cli import main

        assert main(["sta", "--voltage", "0.75"]) == 0
        assert "clock bound" in capsys.readouterr().out
