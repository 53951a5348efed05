"""StreamingSession: online evaluation over an unbounded program stream.

The offline engine evaluates whole programs (one compiled trace → one
frame).  The streaming engine consumes programs from any iterable source
(bundled kernels, the seeded :func:`repro.workloads.program_stream`
generator, an ndjson feed), chops each compiled trace into
:class:`~repro.stream.windows.TraceWindow` slices, and drives the
policies / adapt controller window by window — holding at most
``max_windows`` windows and one compiled trace in memory, and emitting a
rolling :class:`~repro.api.frame.ResultFrame` per window through an
``on_window`` callback.

**Bit-identity contract.**  For any window size, the final frames equal
the offline :class:`repro.api.Session` frames byte-for-byte (JSON
export):

- registry policies are cycle-local, so one
  :class:`~repro.clocking.controller.ClockAdjustmentController` per
  (config, program) fed consecutive windows accumulates exactly the
  period sequence of one whole-trace call — totals, extrema, switch
  counts and rows come out identical;
- ``learned:`` policies stream through
  :class:`~repro.ml.features.WindowedFeatureExtractor`, which carries the
  trailing recent-window flags (integer counts — exact);
- drift adaptation recomputes each window's drift slice via
  ``EnvironmentModel.drift_array(n, start=...)``, carries the online
  monitor scale across window boundaries, and defers the period-sum
  reduction to one whole-program array (the same
  :func:`repro.adapt.online._finish` the offline engine and the
  per-record test oracle share).

``tests/test_stream.py`` enforces the contract for every policy ×
window size, including a Hypothesis window-partition property test.
"""

import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.api.frame import ADAPT_SCHEMA, ResultFrame
# evaluation_row is not called here; it stays importable from this module,
# where perfbench/layers.py probes it as the stream's frame-build layer
from repro.api.session import Session, evaluation_row  # noqa: F401
from repro.clocking.controller import ClockAdjustmentController
from repro.dta.compiled import (
    discard_compiled_trace,
    get_compiled_trace,
    is_trace_cached,
    trace_key,
)
from repro.flow.evaluate import (
    VIOLATION_TOLERANCE_PS,
    EvaluationResult,
    scan_violations,
)
from repro.obs import metrics as obs_metrics
from repro.obs.trace import span as obs_span
from repro.sim import predecode
from repro.stream.windows import iter_windows

#: Default window length, in cycles.
DEFAULT_WINDOW_CYCLES = 1024

#: Default bound on windows held in memory.
DEFAULT_MAX_WINDOWS = 8

#: Compiled traces a streaming session keeps in the process-wide LRU
#: before evicting the ones it inserted itself — enough for short
#: looping streams (``unique <= 4``) to replay for free, small enough
#: that an unbounded stream of unique programs stays at O(1) memory.
DEFAULT_RETAIN_TRACES = 4


@dataclass
class WindowUpdate:
    """One window's rolling snapshot, handed to ``on_window``.

    ``frame`` carries cumulative rows for the current program —
    :data:`EVALUATION_SCHEMA` rows (one per config) from
    :meth:`StreamingSession.evaluate`, :data:`ADAPT_SCHEMA` rows from
    :meth:`StreamingSession.adapt`.  Rolling rows are monitoring-grade
    (running float accumulators); the *final* frame a run returns is the
    bit-identical artifact.
    """

    program: str
    index: int
    global_index: int
    start_cycle: int
    num_cycles: int
    stream_cycles: int
    frame: ResultFrame
    scheme: str = None


class _WindowedLearnedPolicy:
    """LearnedPolicy adapter with carried feature-extractor state.

    Same predictions as the offline policy on the whole trace; built
    fresh per (config, program), like every policy factory.
    """

    name = "learned"

    def __init__(self, inner):
        from repro.ml.features import WindowedFeatureExtractor

        self.model = inner.model
        self.static_period_ps = inner.static_period_ps
        self._extractor = WindowedFeatureExtractor(
            vocabulary=self.model.vocabulary, window=self.model.window
        )

    def periods_for(self, window):
        features = self._extractor.extract(window)
        normalized = self.model.predict_normalized(features.matrix)
        return normalized * self.static_period_ps


def _as_streaming_policy(policy):
    from repro.clocking.policies import LearnedPolicy

    if isinstance(policy, LearnedPolicy):
        return _WindowedLearnedPolicy(policy)
    return policy


def _iter_programs(source):
    """Programs from a stream source: Program objects pass through,
    strings resolve as kernel names / assembly paths."""
    from repro.workloads import resolve_program

    if isinstance(source, str):
        source = [source]
    for item in source:
        yield resolve_program(item) if isinstance(item, str) else item


class _RollingEvaluation:
    """Running per-config aggregates for the rolling frames (cheap float
    accumulators — the final frame recomputes from the full sequence)."""

    def __init__(self):
        self.cycles = 0
        self.total_time_ps = 0.0
        self.switches = 0
        self.min_period_ps = float("nan")
        self.max_period_ps = float("nan")
        self._last_period = None

    def update(self, periods):
        if len(periods) == 0:
            return
        self.total_time_ps += float(periods.sum())
        self.switches += int(np.count_nonzero(periods[1:] != periods[:-1]))
        if self._last_period is not None and periods[0] != self._last_period:
            self.switches += 1
        first = float(periods.min())
        last = float(periods.max())
        if self.cycles == 0:
            self.min_period_ps = first
            self.max_period_ps = last
        else:
            self.min_period_ps = min(self.min_period_ps, first)
            self.max_period_ps = max(self.max_period_ps, last)
        self.cycles += len(periods)
        self._last_period = periods[-1]

    @property
    def switch_rate(self):
        if self.cycles <= 1:
            return 0.0
        return self.switches / (self.cycles - 1)


class StreamingSession:
    """Online, bounded-memory evaluation over a stream of programs.

    Parameters
    ----------
    session:
        The :class:`~repro.api.Session` providing the operating point,
        LUT, store, engine and telemetry context.  ``None`` builds one
        from ``session_kwargs`` (same signature as ``Session``).
    window_cycles:
        Cycles per :class:`TraceWindow` (``None`` = whole program).
    max_windows:
        Bound on windows kept referenced (:attr:`recent_windows`).
    retain_traces:
        Compiled traces of already-evaluated stream programs left in
        the process-wide LRU before this session evicts the ones it
        inserted — the O(1)-memory guarantee for unbounded streams.
    on_window:
        Default per-window callback (``WindowUpdate`` argument); the
        per-call ``on_window=`` overrides it.
    """

    def __init__(self, session=None, *, window_cycles=DEFAULT_WINDOW_CYCLES,
                 max_windows=DEFAULT_MAX_WINDOWS,
                 retain_traces=DEFAULT_RETAIN_TRACES, on_window=None,
                 **session_kwargs):
        if session is None:
            session = Session(**session_kwargs)
        elif session_kwargs:
            raise ValueError(
                "pass either a session or Session keyword arguments, "
                "not both"
            )
        if window_cycles is not None and int(window_cycles) < 1:
            raise ValueError(
                f"window must be >= 1 cycle, got {window_cycles}"
            )
        self.session = session
        self.window_cycles = (
            None if window_cycles is None else int(window_cycles)
        )
        self.max_windows = max(1, int(max_windows))
        self.retain_traces = max(1, int(retain_traces))
        self.on_window = on_window
        #: The last ``max_windows`` TraceWindows (views, not copies).
        self.recent_windows = deque(maxlen=self.max_windows)
        self._owned_programs = deque()
        self._global_index = 0
        self._stream_cycles = 0

    # -- shared plumbing -----------------------------------------------------

    @property
    def design_point(self):
        return self.session.design_point

    def telemetry_frame(self):
        """The underlying session's span timeline (requires a session
        constructed with ``telemetry=``)."""
        return self.session.telemetry_frame()

    def _compile(self, program):
        """Compiled trace with streaming cache discipline: traces (and
        decoded ISS images) this session inserts into the process-wide
        caches are evicted again once ``retain_traces`` newer stream
        programs have passed, so memory stays flat however long the
        stream runs.  Entries that were cached before (warm kernels,
        other sessions) are left alone.  The trace's content key is
        derived once and kept with the owned entry."""
        session = self.session
        design = session.design
        max_cycles = session.max_cycles
        key = trace_key(program, design, max_cycles)
        already = is_trace_cached(program, design, max_cycles, key=key)
        started = time.perf_counter()
        compiled = get_compiled_trace(program, design, max_cycles, key=key)
        if not already:
            # an image decoded during this compile is the trace's own;
            # one that was cached before stays (its build time says so)
            image = compiled.image
            owned_image = (
                image if image is not None and image.built_at >= started
                else None
            )
            self._owned_programs.append((program, key, owned_image))
            while len(self._owned_programs) > self.retain_traces:
                stale, stale_key, stale_image = self._owned_programs.popleft()
                discard_compiled_trace(stale, design, max_cycles,
                                       key=stale_key)
                if stale_image is not None:
                    predecode.discard_image(stale_image)
        return compiled

    def _observe_window(self, window):
        self.recent_windows.append(window)
        self._global_index += 1
        self._stream_cycles += window.num_cycles
        obs_metrics.inc("stream.windows")
        obs_metrics.inc("stream.cycles", window.num_cycles)

    def _emit(self, callback, window, frame, scheme=None):
        if callback is None:
            return
        callback(WindowUpdate(
            program=window.program_name,
            index=window.index,
            global_index=self._global_index - 1,
            start_cycle=window.start_cycle,
            num_cycles=window.num_cycles,
            stream_cycles=self._stream_cycles,
            frame=frame,
            scheme=scheme,
        ))

    # -- policy evaluation ---------------------------------------------------

    def evaluate(self, source, configs=None, *, policies=None,
                 generators=None, margins=None, check_safety=True,
                 on_window=None):
        """Evaluate a program stream under clock configurations.

        Same configuration surface as :meth:`repro.api.Session.evaluate`;
        ``source`` is any iterable of Program objects or kernel-name /
        assembly-path strings (finite sources only — the returned frame
        covers the whole stream).  The frame is byte-identical to the
        offline ``Session.evaluate`` over the same programs, for any
        window size.
        """
        session = self.session
        if configs is not None:
            if policies or generators or margins:
                raise ValueError(
                    "pass either configs or policies/generators/margins, "
                    "not both"
                )
            specs = list(configs)
        else:
            specs = session._config_specs(
                list(policies) if policies is not None
                else ["instruction"],
                list(generators) if generators is not None else ["ideal"],
                [float(m) for m in (margins if margins is not None
                                    else [0.0])],
                check_safety,
            )
        concrete = session._materialize(specs)
        callback = on_window if on_window is not None else self.on_window
        grid = [[] for _ in concrete]
        with session._scope("stream.evaluate", configs=len(concrete),
                            window=self.window_cycles or 0), \
                session._attached_store():
            for program in _iter_programs(source):
                self._evaluate_program(
                    program, specs, concrete, grid, callback
                )
        return session._evaluation_frame(specs, concrete, grid)

    def _evaluate_program(self, program, specs, concrete, grid, callback):
        session = self.session
        compiled = self._compile(program)
        controllers = []
        for config in concrete:
            policy = _as_streaming_policy(config.make_policy())
            controllers.append(ClockAdjustmentController(
                policy, generator=config.make_generator(),
                margin_percent=config.margin_percent,
            ))
        violations = [[] for _ in concrete]
        rolling = [_RollingEvaluation() for _ in concrete]
        for window in self._windows(compiled, "stream.window"):
            for ci, (config, controller) in enumerate(
                    zip(concrete, controllers)):
                periods = controller.periods_for(window)
                if config.check_safety:
                    violations[ci].extend(scan_violations(
                        window, periods, window.start_cycle
                    ))
                rolling[ci].update(periods)
            if callback is not None:
                frame = self._rolling_frame(
                    compiled, specs, concrete, controllers, rolling,
                    violations,
                )
                self._emit(callback, window, frame)
        obs_metrics.inc("stream.programs")
        for ci, controller in enumerate(controllers):
            stats = controller.stats
            result = EvaluationResult(
                program_name=compiled.program_name,
                policy_name=getattr(
                    controller.policy, "name",
                    type(controller.policy).__name__,
                ),
                num_cycles=compiled.num_cycles,
                num_retired=compiled.num_retired,
                total_time_ps=stats.total_time_ps,
                static_period_ps=session.design.static_period_ps,
                min_period_ps=stats.min_period_ps,
                max_period_ps=stats.max_period_ps,
                switch_rate=stats.switch_rate,
                violations=violations[ci],
            )
            grid[ci].append(result)

    def _windows(self, compiled, span_name):
        for window in iter_windows(compiled, self.window_cycles):
            with obs_span(span_name, program=compiled.program_name,
                          index=window.index, cycles=window.num_cycles):
                self._observe_window(window)
                yield window

    def _rolling_frame(self, compiled, specs, concrete, controllers,
                       rolling, violations):
        grid = []
        for controller, stats, viol in zip(controllers, rolling,
                                           violations):
            grid.append([EvaluationResult(
                program_name=compiled.program_name,
                policy_name=getattr(
                    controller.policy, "name",
                    type(controller.policy).__name__,
                ),
                num_cycles=stats.cycles,
                num_retired=compiled.num_retired,
                total_time_ps=stats.total_time_ps,
                static_period_ps=self.session.design.static_period_ps,
                min_period_ps=stats.min_period_ps,
                max_period_ps=stats.max_period_ps,
                switch_rate=stats.switch_rate,
                violations=viol,
            )])
        return self.session._evaluation_frame(specs, concrete, grid)

    # -- drift adaptation ----------------------------------------------------

    def adapt(self, source, environment, *, schemes=None,
              update_interval=150, tracking_margin=0.025, on_window=None):
        """Evaluate a program stream under environmental drift.

        Byte-identical to :meth:`repro.api.Session.adapt` over the same
        programs, for any window size: drift windows come from
        ``drift_array(n, start=...)``, the online monitor scale is
        carried across window boundaries, and the period-sum reduction
        runs once over the whole program's sequence.
        """
        from repro.adapt import online as _online

        session = self.session
        schemes = list(schemes or _online.SCHEMES)
        for scheme in schemes:
            _online._check_scheme(scheme)
        callback = on_window if on_window is not None else self.on_window
        rows = []
        with session._scope("stream.adapt", schemes=len(schemes),
                            window=self.window_cycles or 0), \
                session._attached_store():
            lut = session.lut
            for program in _iter_programs(source):
                compiled = self._compile(program)
                for scheme in schemes:
                    result = self._adapt_program(
                        compiled, program.name, lut, environment, scheme,
                        update_interval, tracking_margin, callback,
                    )
                    rows.append(_adapt_row(result))
                obs_metrics.inc("stream.programs")
        return ResultFrame.from_rows(rows, ADAPT_SCHEMA)

    def _adapt_program(self, compiled, program_name, lut, environment,
                       scheme, update_interval, tracking_margin, callback):
        from repro.adapt import online as _online
        from repro.clocking.policies import InstructionLutPolicy

        num_cycles = compiled.num_cycles
        policy = InstructionLutPolicy(lut)
        result = _online.AdaptiveEvaluationResult(
            program_name=program_name,
            scheme=scheme,
            num_cycles=num_cycles,
            total_time_ps=0.0,
        )
        if scheme == "fixed-guard":
            static_scale = environment.max_drift(num_cycles)
        else:
            static_scale = 1.0
        # replaced at the cycle-0 update before it can apply to any cycle
        carry_scale = 1.0 + tracking_margin
        max_drift = 1.0
        chunks = []
        rolling_time = 0.0
        for window in self._windows(compiled, "stream.adapt_window"):
            start = window.start_cycle
            stop = window.stop_cycle
            drift = environment.drift_array(window.num_cycles, start=start)
            predicted = np.asarray(
                policy.periods_for(window), dtype=float
            )
            if scheme == "online":
                first = -(-start // update_interval) * update_interval
                update_cycles = np.arange(first, stop, update_interval)
                scales = np.array([
                    _online._monitor_measurement(float(drift[cycle - start]))
                    + tracking_margin
                    for cycle in update_cycles
                ], dtype=float)
                lengths = np.diff(np.concatenate(
                    [[start], update_cycles, [stop]]
                ))
                periods = predicted * np.repeat(
                    np.concatenate([[carry_scale], scales]), lengths
                )
                if len(scales):
                    carry_scale = float(scales[-1])
                result.lut_updates += len(update_cycles)
            else:
                periods = predicted * static_scale
            violating = (
                window.delays * drift[:, None]
                > periods[:, None] + VIOLATION_TOLERANCE_PS
            )
            result.violations += int(np.count_nonzero(violating))
            max_drift = max(max_drift, float(drift.max()))
            chunks.append(periods)
            if callback is not None:
                rolling_time += float(periods.sum())
                result.max_drift_seen = max_drift
                result.total_time_ps = rolling_time
                frame = ResultFrame.from_rows(
                    [_adapt_row(result, num_cycles=stop)], ADAPT_SCHEMA
                )
                self._emit(callback, window, frame, scheme=scheme)
        result.max_drift_seen = max_drift
        periods = (
            np.concatenate(chunks) if chunks else np.zeros(0, dtype=float)
        )
        return _online._finish(result, periods)


def _adapt_row(result, num_cycles=None):
    """One ADAPT_SCHEMA row (same layout as ``Session.adapt``)."""
    from repro.utils.units import ps_to_mhz

    cycles = result.num_cycles if num_cycles is None else num_cycles
    total = result.total_time_ps
    average = total / cycles if cycles else float("nan")
    return {
        "program": result.program_name,
        "scheme": result.scheme,
        "num_cycles": cycles,
        "total_time_ps": total,
        "violations": result.violations,
        "lut_updates": result.lut_updates,
        "max_drift_seen": result.max_drift_seen,
        "average_period_ps": average,
        "effective_frequency_mhz": (
            ps_to_mhz(average) if cycles else float("nan")
        ),
    }
