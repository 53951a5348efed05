"""Top-level DynamicClockAdjustment API and config tests."""

import pytest

from repro.core import DcaConfig, DynamicClockAdjustment
from repro.workloads import get_kernel


@pytest.fixture(scope="module")
def dca(characterization):
    """A DCA instance reusing the session characterisation."""
    return DynamicClockAdjustment(characterization=characterization)


class TestConfig:
    def test_defaults_valid(self):
        config = DcaConfig().validate()
        assert config.policy == "instruction"
        assert config.voltage == 0.70

    @pytest.mark.parametrize("field,value", [
        ("policy", "bogus"),
        ("generator", "bogus"),
        ("margin_percent", -5.0),
    ])
    def test_invalid_rejected(self, field, value):
        config = DcaConfig(**{field: value})
        with pytest.raises(ValueError):
            config.validate()


class TestDca:
    def test_static_frequency(self, dca):
        assert dca.static_frequency_mhz == pytest.approx(493.6, abs=0.1)

    def test_evaluate_default_policy(self, dca):
        row = dca.session.evaluate(
            [get_kernel("fib").program()], policies=[dca.config.policy]
        ).row(0)
        assert row["policy"] == "instruction"
        assert row["speedup_percent"] > 25.0
        assert row["num_violations"] == 0

    def test_policy_override(self, dca):
        row = dca.session.evaluate(
            [get_kernel("fib").program()], policies=["static"],
            check_safety=False,
        ).row(0)
        assert row["speedup_percent"] == pytest.approx(0.0, abs=1e-9)

    def test_all_policies_constructible(self, dca):
        for name in DcaConfig.POLICIES:
            assert dca.make_policy(name) is not None
        with pytest.raises(ValueError):
            dca.make_policy("bogus")

    def test_all_generators_constructible(self, dca):
        for name in DcaConfig.GENERATORS:
            assert dca.make_generator(name) is not None
        with pytest.raises(ValueError):
            dca.make_generator("bogus")

    def test_suite_evaluation(self, dca):
        programs = [get_kernel(n).program() for n in ("fib", "crc16")]
        frame = dca.session.evaluate(programs, check_safety=False)
        assert [row["program"] for row in frame.iter_rows()] == [
            "fib", "crc16",
        ]

    def test_lut_table_rendering(self, dca):
        text = dca.lut_table(classes=["l.mul(i)"])
        assert "1899" in text

    def test_ring_generator_quantizes(self, dca):
        row = dca.session.evaluate(
            [get_kernel("fib").program()], generators=["ring"],
            check_safety=False,
        ).row(0)
        assert row["min_period_ps"] % 50.0 == pytest.approx(0.0, abs=1e-6)
