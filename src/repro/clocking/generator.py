"""Tunable clock generator models.

The paper treats the clock generator as out of scope but cites realisable
options: tunable ring oscillators with muxed outputs [9][10] and multi-PLL
clocking units [11].  We model the *attainable period sets* of these
options so that the quantisation ablation (bench A2) can measure how much
of the fine-grained gain survives a realistic generator.

Every generator guarantees the safety direction: the granted period is
never shorter than the requested one.

Each generator grants periods one at a time (``quantize_up``, the hardware
view) or for a whole trace at once (``quantize_up_array``, used by the
batch evaluation engine).  The array path performs the same float
operations per element, so grants are bit-identical between the two.
Both paths reject a non-finite or non-positive request with
:class:`ClockGeneratorError`: a NaN compares false against every bound,
so it would otherwise pass through as a "safe" period.
"""

import math

import numpy as np


class ClockGeneratorError(ValueError):
    """Requested period cannot be granted safely."""


def check_period(period_ps):
    """``period_ps`` if it is finite and positive, else
    :class:`ClockGeneratorError`."""
    if not 0 < period_ps < math.inf:
        raise ClockGeneratorError(f"invalid period {period_ps}")
    return period_ps


def check_periods(periods_ps):
    """``periods_ps`` as a float array if every period is finite and
    positive, else :class:`ClockGeneratorError` (``min`` propagates NaN,
    so one reduction per bound covers all three failure modes)."""
    periods_ps = np.asarray(periods_ps, dtype=float)
    if periods_ps.size:
        low = float(periods_ps.min())
        high = float(periods_ps.max())
        if not (low > 0 and high < math.inf):
            # a NaN or non-positive minimum, else an infinite maximum
            bad = high if low > 0 else low
            raise ClockGeneratorError(f"invalid period {bad}")
    return periods_ps


class IdealClockGenerator:
    """Continuously tunable source: grants exactly the requested period."""

    name = "ideal"

    def quantize_up(self, period_ps):
        return check_period(period_ps)

    def quantize_up_array(self, periods_ps):
        return check_periods(periods_ps)

    def available_periods(self):
        return None   # continuum


class TunableRingOscillator:
    """Ring oscillator with discrete taps every ``step_ps`` picoseconds.

    Periods from ``min_period_ps`` to ``max_period_ps`` inclusive are
    available; requests are rounded *up* to the next tap.
    """

    name = "ring-oscillator"

    def __init__(self, step_ps=50.0, min_period_ps=600.0,
                 max_period_ps=2400.0):
        if step_ps <= 0 or min_period_ps <= 0 or max_period_ps < min_period_ps:
            raise ClockGeneratorError("invalid ring-oscillator configuration")
        self.step_ps = step_ps
        self.min_period_ps = min_period_ps
        self.max_period_ps = max_period_ps

    def quantize_up(self, period_ps):
        check_period(period_ps)
        clamped = max(period_ps, self.min_period_ps)
        steps = math.ceil(
            (clamped - self.min_period_ps) / self.step_ps - 1e-9
        )
        granted = self.min_period_ps + steps * self.step_ps
        if granted > self.max_period_ps + 1e-9:
            raise ClockGeneratorError(
                f"period {period_ps:.1f} ps exceeds the oscillator range "
                f"(max {self.max_period_ps:.1f} ps)"
            )
        return granted

    def quantize_up_array(self, periods_ps):
        periods_ps = check_periods(periods_ps)
        # the scalar arithmetic, in place: one allocation per call
        granted = np.maximum(periods_ps, self.min_period_ps)
        granted -= self.min_period_ps
        granted /= self.step_ps
        granted -= 1e-9
        np.ceil(granted, out=granted)
        granted *= self.step_ps
        granted += self.min_period_ps
        over = granted > self.max_period_ps + 1e-9
        if over.any():
            worst = float(periods_ps[over].max())
            raise ClockGeneratorError(
                f"period {worst:.1f} ps exceeds the oscillator range "
                f"(max {self.max_period_ps:.1f} ps)"
            )
        return granted

    def available_periods(self):
        count = int(
            (self.max_period_ps - self.min_period_ps) / self.step_ps
        ) + 1
        return [self.min_period_ps + i * self.step_ps for i in range(count)]


class MultiPLLClockGenerator:
    """A small set of PLL outputs muxed per cycle (coarsest option).

    The default frequency plan brackets the design's operating range at
    0.70 V: the slowest PLL must run at or below the STA frequency so the
    static fallback period is attainable.
    """

    name = "multi-pll"

    DEFAULT_FREQUENCIES_MHZ = (490.0, 560.0, 640.0, 720.0, 800.0)

    def __init__(self, frequencies_mhz=DEFAULT_FREQUENCIES_MHZ):
        if not frequencies_mhz:
            raise ClockGeneratorError("need at least one PLL frequency")
        self.frequencies_mhz = tuple(sorted(frequencies_mhz))
        self._periods = sorted(
            1e6 / freq for freq in self.frequencies_mhz
        )
        self._period_grid = np.array(self._periods)
        # a request p is granted grid[i] iff grid[i] + 1e-9 >= p, so the
        # searchsorted thresholds are exactly the scalar comparison values
        self._grant_thresholds = self._period_grid + 1e-9

    def quantize_up(self, period_ps):
        check_period(period_ps)
        for period in self._periods:
            if period + 1e-9 >= period_ps:
                return period
        raise ClockGeneratorError(
            f"period {period_ps:.1f} ps exceeds the slowest PLL "
            f"({self._periods[-1]:.1f} ps)"
        )

    def quantize_up_array(self, periods_ps):
        periods_ps = check_periods(periods_ps)
        indices = np.searchsorted(
            self._grant_thresholds, periods_ps, side="left"
        )
        over = indices >= len(self._periods)
        if over.any():
            worst = float(periods_ps[over].max())
            raise ClockGeneratorError(
                f"period {worst:.1f} ps exceeds the slowest PLL "
                f"({self._periods[-1]:.1f} ps)"
            )
        return self._period_grid[indices]

    def available_periods(self):
        return list(self._periods)
