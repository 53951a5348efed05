"""Cycle-by-cycle adjustable clocking (paper Fig. 1).

- :mod:`repro.clocking.generator` — models of the tunable clock generator
  the paper references ([9]-[11]): an ideal continuously-tunable source, a
  ring-oscillator with discrete taps, and a multi-PLL mux;
- :mod:`repro.clocking.policies` — clock-period prediction policies: the
  paper's per-instruction LUT monitor, the simplified EX-only monitor
  (Sec. IV-A), a two-class baseline in the spirit of
  application-adaptive guard-banding [8], the genie-aided oracle, the
  static baseline, and the trained ML-DFS predictor
  (:class:`~repro.clocking.policies.LearnedPolicy`, see
  :mod:`repro.ml`);
- :mod:`repro.clocking.controller` — combines a policy with a generator
  and an optional safety margin into the per-cycle period decision.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ClockAdjustmentController",
    "IdealClockGenerator",
    "TunableRingOscillator",
    "MultiPLLClockGenerator",
    "ClockGeneratorError",
    "StaticClockPolicy",
    "InstructionLutPolicy",
    "ExOnlyLutPolicy",
    "TwoClassPolicy",
    "GeniePolicy",
    "LearnedPolicy",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "controller": ("ClockAdjustmentController",),
    "generator": (
        "ClockGeneratorError", "IdealClockGenerator",
        "MultiPLLClockGenerator", "TunableRingOscillator",
    ),
    "policies": (
        "ExOnlyLutPolicy", "GeniePolicy", "InstructionLutPolicy",
        "LearnedPolicy", "StaticClockPolicy", "TwoClassPolicy",
    ),
})
