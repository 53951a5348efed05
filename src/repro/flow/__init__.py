"""End-to-end flows (paper Fig. 2).

- :mod:`repro.flow.characterize` — implementation → gate-level simulation →
  dynamic timing analysis → instruction timing extraction → delay LUT;
- :mod:`repro.flow.evaluate` — benchmark execution with dynamic timings on
  the LUT-aware cycle-accurate simulator, including the ground-truth safety
  check (no excited path may exceed the applied period);
- :mod:`repro.flow.experiment` — experiment configuration/result records
  used by the bench harnesses.
"""

from repro.flow.characterize import CharacterizationResult
from repro.flow.evaluate import EvaluationResult, SweepConfig

__all__ = [
    "CharacterizationResult",
    "EvaluationResult",
    "SweepConfig",
]
