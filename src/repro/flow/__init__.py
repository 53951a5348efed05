"""End-to-end flows (paper Fig. 2).

- :mod:`repro.flow.characterize` — implementation → gate-level simulation →
  dynamic timing analysis → instruction timing extraction → delay LUT;
- :mod:`repro.flow.evaluate` — benchmark execution with dynamic timings on
  the LUT-aware cycle-accurate simulator, including the ground-truth safety
  check (no excited path may exceed the applied period);
- :mod:`repro.flow.experiment` — experiment configuration/result records
  used by the bench harnesses.
"""

from repro._lazy import lazy_exports

__all__ = [
    "CharacterizationResult",
    "EvaluationResult",
    "SweepConfig",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "characterize": ("CharacterizationResult",),
    "evaluate": ("EvaluationResult", "SweepConfig"),
})
