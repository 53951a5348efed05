"""Scenario grids: expansion order, validation, JSON/TOML loading."""

import pytest

from repro.lab.scenario import (
    ConfigSpec,
    DesignPoint,
    ScenarioError,
    ScenarioGrid,
)


class TestExpansion:
    def test_defaults(self):
        grid = ScenarioGrid()
        assert grid.design_points() == [
            DesignPoint(variant="critical_range", voltage=0.70)
        ]
        assert grid.config_specs() == [
            ConfigSpec(policy="instruction", generator="ideal",
                       margin_percent=0.0, check_safety=False)
        ]
        # empty workloads means the full Fig. 8 suite
        from repro.workloads.suite import suite_names

        assert grid.workload_specs() == suite_names()
        assert grid.num_units == len(suite_names())

    def test_cross_product_order(self):
        grid = ScenarioGrid(
            policies=("instruction", "genie"),
            generators=("ideal", "ring"),
            margins=(0.0, 5.0),
            variants=("critical_range", "conventional"),
            voltages=(0.70, 0.90),
            workloads=("fib", "crc16"),
        )
        points = grid.design_points()
        assert len(points) == 4
        assert points[0] == DesignPoint("critical_range", 0.70)
        assert points[1] == DesignPoint("critical_range", 0.90)
        assert points[2] == DesignPoint("conventional", 0.70)

        specs = grid.config_specs()
        assert len(specs) == 8
        assert specs[0].label == "instruction/ideal"
        assert specs[1].label == "instruction/ideal/margin=5%"
        assert specs[2].label == "instruction/ring"
        assert specs[4].policy == "genie"

        assert grid.num_units == 4 * 2
        assert grid.num_evaluations == 4 * 2 * 8

    def test_design_point_label_and_build(self):
        point = DesignPoint("critical_range", 0.8)
        assert point.label == "critical_range@0.80V"
        design = point.build()
        assert design.variant.value == "critical_range"
        assert design.library.voltage == 0.8

    def test_config_spec_make(self, design, lut):
        from repro.clocking.generator import TunableRingOscillator
        from repro.clocking.policies import InstructionLutPolicy
        from repro.core import DcaConfig, DynamicClockAdjustment
        from repro.flow.characterize import CharacterizationResult

        dca = DynamicClockAdjustment(
            config=DcaConfig(variant=design.variant),
            characterization=CharacterizationResult(
                design=design, lut=lut
            ),
        )
        spec = ConfigSpec(policy="instruction", generator="ring",
                          margin_percent=7.5, check_safety=True)
        config = spec.make(dca)
        assert isinstance(config.make_policy(), InstructionLutPolicy)
        assert isinstance(config.generator, TunableRingOscillator)
        assert config.margin_percent == 7.5
        assert config.check_safety
        assert config.label == "instruction/ring/margin=7.5%"


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("policies", ("warp-speed",)),
        ("generators", ("crystal",)),
        ("variants", ("quantum",)),
        ("policies", ()),
        ("margins", (-1.0,)),
        ("voltages", (0.0,)),
    ])
    def test_bad_axis_rejected(self, field, value):
        with pytest.raises(ScenarioError):
            ScenarioGrid(**{field: value})

    def test_unknown_field_rejected(self):
        with pytest.raises(ScenarioError, match="unknown grid fields"):
            ScenarioGrid.from_dict({"polcies": ["instruction"]})

    def test_non_mapping_rejected(self):
        with pytest.raises(ScenarioError, match="must be a mapping"):
            ScenarioGrid.from_json("[1, 2, 3]")

    def test_learned_policy_spec_accepted(self):
        """``learned:<model.npz>`` rides the policy axis next to the
        registry names (the file itself is validated separately)."""
        grid = ScenarioGrid(
            policies=("instruction", "learned:model.npz")
        )
        assert grid.policies == ("instruction", "learned:model.npz")
        labels = [spec.label for spec in grid.config_specs()]
        assert "learned:model.npz/ideal" in labels

    def test_learned_policy_spec_needs_path(self):
        with pytest.raises(ScenarioError, match="needs a model path"):
            ScenarioGrid(policies=("learned:",))

    def test_bare_learned_rejected_with_hint(self):
        with pytest.raises(ScenarioError,
                           match=r"learned:<model\.npz>"):
            ScenarioGrid(policies=("learned",))

    def test_fingerprint_tracks_learned_model_content(self, tmp_path):
        """Retraining a model at the same path must change the grid
        fingerprint — otherwise ``--resume`` would merge checkpoints
        evaluated under the old model with fresh units under the new
        one."""
        path = tmp_path / "model.npz"
        grid = ScenarioGrid(policies=(f"learned:{path}",))
        missing = grid.fingerprint()
        path.write_bytes(b"model v1")
        first = grid.fingerprint()
        path.write_bytes(b"model v2")
        second = grid.fingerprint()
        assert len({missing, first, second}) == 3
        path.write_bytes(b"model v1")
        assert grid.fingerprint() == first      # content, not mtime

    def test_fingerprint_tracks_workload_file_content(self, tmp_path):
        """Editing an assembly workload changes the fingerprint, so the
        frame cache and ``--resume`` never serve rows of the old
        program; bundled kernel names digest no file."""
        path = tmp_path / "k.s"
        grid = ScenarioGrid(workloads=(str(path), "fib"))
        missing = grid.fingerprint()
        path.write_text("l.nop 0x1\n")
        first = grid.fingerprint()
        path.write_text("l.addi r1, r0, 1\nl.nop 0x1\n")
        assert len({missing, first, grid.fingerprint()}) == 3
        path.write_text("l.nop 0x1\n")
        assert grid.fingerprint() == first      # content, not mtime

    def test_fingerprint_unchanged_without_learned_policies(self):
        """Plain grids keep their historical fingerprints (stored
        manifests and cached sweep results stay valid)."""
        grid = ScenarioGrid(policies=("instruction",))
        import hashlib
        import json as jsonlib

        text = jsonlib.dumps(grid.to_dict(), sort_keys=True,
                             separators=(",", ":"))
        assert grid.fingerprint() == \
            hashlib.sha256(text.encode()).hexdigest()


class TestSerialisation:
    def test_round_trip_and_fingerprint(self):
        grid = ScenarioGrid(
            name="roundtrip",
            policies=("instruction",),
            margins=(0.0, 10.0),
            workloads=("fib",),
        )
        clone = ScenarioGrid.from_dict(grid.to_dict())
        assert clone == grid
        assert clone.fingerprint() == grid.fingerprint()
        # any change to any axis changes the identity
        other = ScenarioGrid.from_dict(
            {**grid.to_dict(), "margins": [0.0]}
        )
        assert other.fingerprint() != grid.fingerprint()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "grid.json"
        path.write_text(
            '{"name": "json-grid", "policies": ["genie"],'
            ' "workloads": ["fib"], "check_safety": true}'
        )
        grid = ScenarioGrid.from_file(path)
        assert grid.name == "json-grid"
        assert grid.policies == ("genie",)
        assert grid.check_safety

    def test_from_toml_file(self, tmp_path):
        pytest.importorskip("tomllib")   # Python >= 3.11
        path = tmp_path / "grid.toml"
        path.write_text(
            'name = "toml-grid"\n'
            'policies = ["instruction", "two-class"]\n'
            'margins = [0.0, 5.0]\n'
            'voltages = [0.7, 0.8]\n'
            'workloads = ["crc16"]\n'
        )
        grid = ScenarioGrid.from_file(path)
        assert grid.name == "toml-grid"
        assert grid.policies == ("instruction", "two-class")
        assert grid.voltages == (0.7, 0.8)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="not found"):
            ScenarioGrid.from_file(tmp_path / "nope.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        with pytest.raises(ScenarioError, match="invalid JSON"):
            ScenarioGrid.from_file(path)

    def test_invalid_toml(self, tmp_path):
        pytest.importorskip("tomllib")   # Python >= 3.11
        path = tmp_path / "broken.toml"
        path.write_text("= nope")
        with pytest.raises(ScenarioError, match="invalid TOML"):
            ScenarioGrid.from_file(path)
