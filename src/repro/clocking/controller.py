"""The cycle-by-cycle clock adjustment controller (paper Fig. 1).

Combines a prediction policy with a clock-generator model and an optional
safety margin.  The controller is the hardware block the paper proposes:
per cycle it reads the LUT delays of the in-flight instructions, forms the
maximum, and retunes the clock generator.

Statistics are computed from the full period sequence
(:meth:`ControllerStats.from_periods`) in both the scalar and the batch
path, so the two evaluation engines report bit-identical aggregates.

The array path splits a decision into the policy's *base* period vector
(:class:`PolicyGather`, one gather per trace) and the per-configuration
margin and generator applied on top of it, so configurations that share
a policy share its gather.  A :class:`BatchGather` lays the bases of a
whole batch of traces end to end, so one controller decides a
configuration over every program at once and
:meth:`ControllerStats.from_segment` splits the aggregates back per
program.  Every period is checked finite and positive before it is
granted: a NaN would otherwise compare false against every excited delay
and report a fail-open "safe" run.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.clocking.generator import check_period, check_periods


@dataclass
class ControllerStats:
    """Aggregates of one evaluation run.

    For a zero-cycle run the extrema are NaN (there is no period to take a
    minimum or maximum of) and :attr:`average_period_ps` raises — callers
    that may see empty traces should check :attr:`cycles` first.
    """

    cycles: int = 0
    total_time_ps: float = 0.0
    switches: int = 0
    min_period_ps: float = float("nan")
    max_period_ps: float = float("nan")

    @classmethod
    def from_periods(cls, periods_ps):
        """Compute the aggregates from the applied-period sequence."""
        periods_ps = np.asarray(periods_ps, dtype=float)
        if periods_ps.size == 0:
            return cls()
        return cls.from_segment(
            periods_ps, float(periods_ps.min()), float(periods_ps.max())
        )

    @classmethod
    def from_segment(cls, periods_ps, min_period_ps, max_period_ps):
        """Aggregates of a non-empty contiguous view (numpy's pairwise sum
        over it is bit-identical to summing a copy), given its extrema;
        switches never cross the view's ends."""
        return cls(
            cycles=int(periods_ps.size),
            total_time_ps=float(periods_ps.sum()),
            switches=int(
                np.count_nonzero(periods_ps[1:] != periods_ps[:-1])
            ),
            min_period_ps=min_period_ps,
            max_period_ps=max_period_ps,
        )

    @property
    def average_period_ps(self):
        if self.cycles == 0:
            raise ValueError("no cycles recorded")
        return self.total_time_ps / self.cycles

    @property
    def switch_rate(self):
        """Fraction of cycles with a period change (CG activity metric)."""
        if self.cycles <= 1:
            return 0.0
        return self.switches / (self.cycles - 1)

    @property
    def is_empty(self):
        return self.cycles == 0


class PolicyGather:
    """A policy's base period vector over one trace, gathered once.

    The base is what the policy requests before any margin or generator
    (``periods_for``, or ``period_for`` per record for scalar-only
    policies), checked finite and positive.  It is memoised for the last
    trace seen; the memo holds that trace, so an identity check can never
    match a different trace that reused a freed one's id.  Every
    controller handed the same gather reads the same vector; a
    :class:`BatchGather` holds one per trace of a batch.
    """

    def __init__(self, policy):
        self.policy = policy
        self._trace = None
        self._base = None

    def periods_for(self, compiled_trace):
        if compiled_trace is not self._trace:
            if hasattr(self.policy, "periods_for"):
                base = self.policy.periods_for(compiled_trace)
            else:
                base = [
                    self.policy.period_for(record)
                    for record in compiled_trace.trace.records
                ]
            self._base = check_periods(base)
            self._trace = compiled_trace
        return self._base


class BatchGather:
    """One policy source's base period vector over one batch of traces
    (``batch.traces``, cut at ``batch.bounds``), laid end to end.

    ``make_policy`` is called once per trace, in order, so every program
    starts from a fresh policy (the ``SweepConfig`` factory contract),
    gathered and checked through its own :class:`PolicyGather` in
    :attr:`gathers`; the bases are concatenated once.
    """

    #: One policy per trace, held by :attr:`gathers`.
    policy = None

    def __init__(self, make_policy):
        self.make_policy = make_policy
        self.gathers = []
        self._base = None

    def at(self, position):
        """The :class:`PolicyGather` of the trace at ``position``; the
        policies of every trace up to it are built first, in order."""
        while len(self.gathers) <= position:
            self.gathers.append(PolicyGather(self.make_policy()))
        return self.gathers[position]

    def periods_for(self, batch):
        if self._base is None:
            self._base = np.concatenate([
                self.at(position).periods_for(trace)
                for position, trace in enumerate(batch.traces)
            ])
            # one copy of the bases: each trace's memo becomes a view
            for gather, (start, stop) in zip(self.gathers, batch.bounds):
                gather._base = self._base[start:stop]
        return self._base


class ClockAdjustmentController:
    """Per-cycle period decision = quantize(policy period × (1 + margin)).

    Parameters
    ----------
    policy:
        A prediction policy (``period_for(record)``, and optionally the
        vectorized ``periods_for(compiled_trace)``), or a
        :class:`PolicyGather` (one trace) or :class:`BatchGather` (a
        batch of traces laid end to end) shared with other controllers.
    generator:
        Clock-generator model; ``None`` means ideal (continuous).
    margin_percent:
        Extra guard band re-inserted on top of the prediction (ablation
        A4); the paper's scheme runs at 0.
    """

    def __init__(self, policy, generator=None, margin_percent=0.0):
        if margin_percent < 0:
            raise ValueError("margin cannot be negative")
        if not math.isfinite(margin_percent):
            raise ValueError(f"margin must be finite, got {margin_percent}")
        if not isinstance(policy, (PolicyGather, BatchGather)):
            policy = PolicyGather(policy)
        self.gather = policy
        self.policy = policy.policy
        self.generator = generator
        self.margin = 1.0 + margin_percent / 100.0
        #: Applied periods in decision order: arrays from
        #: :meth:`periods_for`, lists of scalar :meth:`period_for` runs.
        self._chunks = []
        self._stats = None

    def period_for(self, record):
        """Decide the clock period for one cycle and record it."""
        period = self.policy.period_for(record) * self.margin
        if self.generator is None:
            check_period(period)
        else:
            period = self.generator.quantize_up(period)
        if not self._chunks or not isinstance(self._chunks[-1], list):
            self._chunks.append([])
        self._chunks[-1].append(period)
        self._stats = None
        return period

    def periods_for(self, compiled_trace):
        """Decide the periods of a whole compiled trace at once.

        Applies margin scaling and generator quantisation element-wise
        (same operations as :meth:`period_for`) on the gathered base
        vector and records the sequence for :attr:`stats`.  The base is
        already checked, and a finite margin of at least 1 keeps it
        finite and positive, so without a generator no second check is
        needed.  Handed a :class:`BatchGather`, ``compiled_trace`` is the
        whole batch and one call decides every program of it.
        """
        periods = self.gather.periods_for(compiled_trace)
        if self.margin != 1.0:   # x * 1.0 == x: no batch-wide copy
            periods = periods * self.margin
        if self.generator is not None:
            if hasattr(self.generator, "quantize_up_array"):
                periods = self.generator.quantize_up_array(periods)
            else:
                periods = np.array([
                    self.generator.quantize_up(period)
                    for period in periods.tolist()
                ])
        self._chunks.append(periods)
        self._stats = None
        return periods

    @property
    def stats(self):
        if self._stats is None:
            periods = (
                np.concatenate(self._chunks, dtype=float)
                if self._chunks else ()
            )
            self._stats = ControllerStats.from_periods(periods)
        return self._stats

    def reset(self):
        self._chunks = []
        self._stats = None
