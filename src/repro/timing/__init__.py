"""Synthetic post-layout timing model of the customised OpenRISC core.

The paper extracts dynamic timing from a placed-and-routed 28 nm FDSOI
netlist with SDF back-annotation.  Without a PDK, this package provides a
*calibrated synthetic substitute* with the same interfaces and statistics
(see ARCHITECTURE.md, "Model substitutions"):

- :mod:`repro.timing.profiles` — per (instruction class, pipeline stage)
  dynamic delay caps and data-dependent spreads for the two design variants
  (*conventional* vs. *critical-range optimised*), calibrated against the
  paper's Table I / Table II / Fig. 5 numbers;
- :mod:`repro.timing.excitation` — the value-dependent path excitation
  model: which delay is actually exercised in a given cycle;
- :mod:`repro.timing.netlist` — synthetic path populations per stage and
  class, used for static timing analysis and the Fig. 3 timing profile;
- :mod:`repro.timing.library` — voltage-dependent delay scaling
  (alpha-power law) and the characterised operating points;
- :mod:`repro.timing.design` — ties everything together in a
  :class:`~repro.timing.design.ProcessorDesign`.
"""

from repro._lazy import lazy_exports

__all__ = [
    "DesignVariant",
    "ProcessorDesign",
    "build_design",
    "ExcitationModel",
    "CellLibrary",
    "delay_scale_factor",
    "SyntheticNetlist",
    "DelayProfile",
    "load_profile",
    "StaticTimingReport",
    "run_sta",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "profiles": ("DesignVariant", "DelayProfile", "load_profile"),
    "design": ("ProcessorDesign", "build_design"),
    "excitation": ("ExcitationModel",),
    "library": ("CellLibrary", "delay_scale_factor"),
    "netlist": ("SyntheticNetlist",),
    "sta": ("StaticTimingReport", "run_sta"),
})
