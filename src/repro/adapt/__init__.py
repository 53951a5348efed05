"""Extension E2: online LUT adaptation under PVT drift (paper Sec. V).

The paper closes with: the approach "could be effective in accounting for
other static and dynamic timing variations, for example due to process,
temperature and voltage fluctuations, by (online-)updating of the used
delay prediction table".  This package implements that outlook:

- :mod:`repro.adapt.environment` — a slow delay-drift model (temperature
  swing + supply droop + aging) multiplying all path delays over time;
- :mod:`repro.adapt.online` — an adaptive controller that tracks the drift
  with a monitor (canary) path and rescales the LUT periodically, compared
  against the two static alternatives: a fixed guard band (safe but slow)
  or no guard band (fast but unsafe once the environment drifts).
"""

from repro._lazy import lazy_exports

__all__ = [
    "EnvironmentModel",
    "AdaptiveEvaluationResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "environment": ("EnvironmentModel",),
    "online": ("AdaptiveEvaluationResult",),
})
