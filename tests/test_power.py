"""Power model, voltage scaling and energy tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.paperdata import (
    CONVENTIONAL_UW_PER_MHZ,
    DYNAMIC_SCALED_UW_PER_MHZ,
    ENERGY_EFFICIENCY_GAIN_PERCENT,
    VOLTAGE_REDUCTION_V,
)
from repro.power.energy import energy_per_instruction_pj, program_energy_pj
from repro.power.model import PowerModel
from repro.power.vfs import scale_voltage_iso_throughput
from repro.timing.library import (
    CellLibrary,
    LibraryError,
    delay_scale_factor,
)

voltages = st.floats(min_value=0.50, max_value=0.95)


class TestLibrary:
    def test_reference_scale_is_one(self):
        assert delay_scale_factor(0.70) == pytest.approx(1.0)

    @given(voltages)
    def test_monotone_decreasing_delay_with_voltage(self, voltage):
        higher = min(voltage + 0.05, 1.0)
        assert delay_scale_factor(voltage) > delay_scale_factor(higher)

    def test_below_vth_rejected(self):
        with pytest.raises(LibraryError):
            delay_scale_factor(0.45)
        with pytest.raises(LibraryError):
            delay_scale_factor(0.30)

    def test_cell_library_scales_setup(self):
        library = CellLibrary.at(0.60)
        assert library.setup_ps > CellLibrary.at(0.70).setup_ps
        assert library.scale_delay(1000.0) == pytest.approx(
            1000.0 * library.delay_scale
        )


class TestPowerModel:
    def test_paper_anchor_point(self):
        model = PowerModel()
        assert model.uw_per_mhz(0.70, 494.0) == pytest.approx(
            CONVENTIONAL_UW_PER_MHZ, abs=0.05
        )

    @given(voltages)
    def test_power_monotone_in_voltage(self, voltage):
        model = PowerModel()
        higher = voltage + 0.02
        assert (
            model.total_power_uw(higher, 500.0)
            > model.total_power_uw(voltage, 500.0)
        )

    def test_power_monotone_in_frequency(self):
        model = PowerModel()
        assert (
            model.total_power_uw(0.7, 600.0)
            > model.total_power_uw(0.7, 500.0)
        )

    def test_efficiency_gain_convention(self):
        model = PowerModel()
        # 13.7 -> 11.0 must read as ~24 % (the paper's convention)
        assert model.efficiency_gain_percent(13.7, 11.0) == pytest.approx(
            24.5, abs=0.1
        )

    def test_invalid_inputs(self):
        model = PowerModel()
        with pytest.raises(ValueError):
            model.dynamic_power_uw(0, 100)
        with pytest.raises(ValueError):
            model.leakage_power_uw(-1)


class TestVoltageScaling:
    def test_paper_operating_point(self):
        """Feeding the paper's 680 MHz reproduces Sec. IV-B."""
        result = scale_voltage_iso_throughput(680.0, 494.0)
        assert result.voltage_reduction_v == pytest.approx(
            VOLTAGE_REDUCTION_V, abs=0.012
        )
        assert result.scaled_uw_per_mhz == pytest.approx(
            DYNAMIC_SCALED_UW_PER_MHZ, abs=0.4
        )
        assert result.efficiency_gain_percent == pytest.approx(
            ENERGY_EFFICIENCY_GAIN_PERCENT, abs=3.0
        )

    def test_iso_throughput_maintained(self):
        result = scale_voltage_iso_throughput(680.0, 494.0)
        assert result.scaled_frequency_mhz >= result.baseline_frequency_mhz

    def test_more_speedup_allows_lower_voltage(self):
        small = scale_voltage_iso_throughput(600.0, 494.0)
        large = scale_voltage_iso_throughput(750.0, 494.0)
        assert large.scaled_voltage < small.scaled_voltage
        assert large.efficiency_gain_percent > small.efficiency_gain_percent

    def test_no_speedup_no_scaling(self):
        result = scale_voltage_iso_throughput(494.0, 494.0)
        assert result.scaled_voltage == pytest.approx(0.70)
        # CG overhead makes zero-speedup scaling slightly *worse*
        assert result.efficiency_gain_percent < 0

    def test_slower_than_baseline_rejected(self):
        with pytest.raises(ValueError):
            scale_voltage_iso_throughput(400.0, 494.0)

    def test_summary_text(self):
        text = scale_voltage_iso_throughput(680.0, 494.0).summary()
        assert "mV" in text and "uW/MHz" in text


class TestEnergy:
    def test_program_energy(self, evaluate_one, lut):
        from repro.clocking.policies import InstructionLutPolicy
        from repro.workloads import get_kernel

        result = evaluate_one(
            get_kernel("fib").program(),
            InstructionLutPolicy(lut), check_safety=False,
        )
        energy = program_energy_pj(result, 0.70)
        assert energy > 0
        per_instruction = energy_per_instruction_pj(result, 0.70)
        assert per_instruction == pytest.approx(
            energy / result.num_retired
        )
        # lower voltage, same run time accounting -> less energy
        assert program_energy_pj(result, 0.60) < energy
