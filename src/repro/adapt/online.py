"""Online LUT adaptation: tracking PVT drift with a monitor path.

Three controller configurations are compared under environmental drift:

- ``fixed-none``  — the paper's nominal scheme, no guard band: fastest,
  but unsafe as soon as delays drift above the characterised corner;
- ``fixed-guard`` — a static guard band sized for the worst-case drift
  (the conventional answer): always safe, always slow;
- ``online``      — the paper's conclusion: a replica/monitor path tracks
  the current drift, and the controller rescales the LUT every
  ``update_interval`` cycles (plus a small tracking margin covering the
  drift slope between updates).

The monitor is modelled as measuring the true drift factor with a small
quantisation error, which is how hardware delay monitors behave.

The evaluation consumes the compiled-trace arrays: the policy prediction
is one ``periods_for`` gather, the monitor rescale schedule is a
``repeat`` over the update points, and the ground-truth safety check is a
single comparison against the drift-scaled delay matrix.
:meth:`repro.api.Session.adapt` is the entry point.  The per-record walk
(one pipeline record at a time, one excitation replay per stage) is the
test oracle in ``tests/oracle.py``, which
``tests/test_batch_equivalence.py`` holds this engine bit-identical to.
"""

from dataclasses import dataclass, field

import numpy as np

from repro.clocking.policies import InstructionLutPolicy
from repro.dta.compiled import get_compiled_trace
from repro.flow.evaluate import DEFAULT_MAX_CYCLES, VIOLATION_TOLERANCE_PS
from repro.utils.units import ps_to_mhz

#: Resolution of the hardware delay monitor (relative).
MONITOR_RESOLUTION = 0.005

#: Valid schemes.
SCHEMES = ("fixed-none", "fixed-guard", "online")


@dataclass
class AdaptiveEvaluationResult:
    """Outcome of one drift-aware evaluation."""

    program_name: str
    scheme: str
    num_cycles: int
    total_time_ps: float
    violations: int = 0
    lut_updates: int = 0
    max_drift_seen: float = 1.0
    periods: list = field(default_factory=list, repr=False)

    @property
    def average_period_ps(self):
        return self.total_time_ps / self.num_cycles

    @property
    def effective_frequency_mhz(self):
        return ps_to_mhz(self.average_period_ps)

    @property
    def is_safe(self):
        return self.violations == 0

    def summary(self):
        return (
            f"{self.program_name} [{self.scheme}]: "
            f"{self.effective_frequency_mhz:.1f} MHz, "
            f"{self.violations} violations, "
            f"{self.lut_updates} LUT updates, "
            f"max drift {self.max_drift_seen:.3f}"
        )


def _monitor_measurement(true_drift):
    """Quantised drift estimate from the replica path monitor."""
    steps = round(true_drift / MONITOR_RESOLUTION)
    return steps * MONITOR_RESOLUTION


def _check_scheme(scheme):
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")


def _finish(result, periods):
    """Shared aggregation: the array engine and the per-record test
    oracle reduce the same period sequence with the same array
    operations, so their aggregates are bit-equal."""
    periods = np.asarray(periods, dtype=float)
    result.total_time_ps = float(periods.sum())
    result.periods = periods.tolist()
    return result


def _evaluate_with_drift_impl(program, design, lut, environment,
                              scheme="online", update_interval=150,
                              tracking_margin=0.025,
                              max_cycles=DEFAULT_MAX_CYCLES):
    """Evaluate a program while the environment drifts — the engine
    behind :meth:`repro.api.Session.adapt`.

    Parameters
    ----------
    scheme:
        ``"fixed-none"``, ``"fixed-guard"`` or ``"online"`` (see module
        docstring).
    update_interval:
        Cycles between monitor readings / LUT rescales (online scheme).
    tracking_margin:
        Relative margin covering drift between two updates (online scheme).
    """
    _check_scheme(scheme)
    compiled = get_compiled_trace(program, design, max_cycles=max_cycles)
    num_cycles = compiled.num_cycles
    drift = environment.drift_array(num_cycles)
    predicted = np.asarray(
        InstructionLutPolicy(lut).periods_for(compiled), dtype=float
    )

    result = AdaptiveEvaluationResult(
        program_name=program.name,
        scheme=scheme,
        num_cycles=num_cycles,
        total_time_ps=0.0,
        max_drift_seen=max(1.0, float(drift.max())) if num_cycles else 1.0,
    )

    if scheme == "online":
        update_cycles = np.arange(0, num_cycles, update_interval)
        scales = np.array([
            _monitor_measurement(float(drift[cycle])) + tracking_margin
            for cycle in update_cycles
        ], dtype=float)
        segment_lengths = np.diff(
            np.append(update_cycles, num_cycles)
        )
        scale = np.repeat(scales, segment_lengths)
        result.lut_updates = len(update_cycles)
        periods = predicted * scale
    else:
        if scheme == "fixed-guard":
            static_scale = environment.max_drift(num_cycles)
        else:
            static_scale = 1.0
        periods = predicted * static_scale

    # ground truth: every excited delay is stretched by the drift
    violating = (
        compiled.delays * drift[:, None]
        > periods[:, None] + VIOLATION_TOLERANCE_PS
    )
    result.violations = int(np.count_nonzero(violating))
    return _finish(result, periods)
