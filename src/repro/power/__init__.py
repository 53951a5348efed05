"""Power model and voltage-frequency scaling (paper Sec. IV-B).

The speed gains of dynamic clock adjustment can be traded for power by
lowering the supply until the dynamically-clocked core just matches the
conventional core's throughput.  This package provides:

- :mod:`repro.power.model` — P(V, f) = dynamic CV²f + leakage, calibrated
  to the paper's 13.7 µW/MHz at 0.70 V / 494 MHz operating point;
- :mod:`repro.power.vfs` — the iso-throughput voltage scaling optimiser
  (paper: ~70 mV lower V_dd, 11.0 µW/MHz, 24 % energy-efficiency gain);
- :mod:`repro.power.energy` — energy metrics for whole program runs.
"""

from repro._lazy import lazy_exports

__all__ = [
    "PowerModel",
    "scale_voltage_iso_throughput",
    "VoltageScalingResult",
    "program_energy_pj",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "energy": ("program_energy_pj",),
    "model": ("PowerModel",),
    "vfs": ("VoltageScalingResult", "scale_voltage_iso_throughput"),
})
