"""The Session facade: one object owns the pipeline's cross-cutting
context.

Every workflow of the reproduction — characterise a design point, compile
traces, evaluate clock policies, check safety, sweep scenario grids,
adapt under drift, scan over-scaling — used to re-thread ``design``,
``store``, ``jobs`` and ``max_cycles`` by hand through five disjoint
entry points.  A :class:`Session` owns that context once:

    >>> from repro.api import Session
    >>> session = Session(voltage=0.70, store=".repro-store", jobs=4)
    >>> frame = session.evaluate(["crc32", "matmult"],
    ...                          policies=["instruction", "genie"])
    >>> frame.group_by("config", {"mhz": ("effective_frequency_mhz",
    ...                                   "mean")}).to_rows()

Methods return a columnar :class:`~repro.api.frame.ResultFrame` (see its
module docstring); ``characterize`` returns the merged
:class:`~repro.dta.lut.CharacterizationResult` since a LUT is
not tabular.  Each workflow has one production path, the compiled-trace
array engine; the per-record reference loops it is held bit-identical to
live in the test oracle (``tests/oracle.py``).
"""

from collections import namedtuple
from contextlib import contextmanager
from operator import attrgetter

import numpy as np

from repro.api.frame import (
    ADAPT_SCHEMA,
    EVALUATION_SCHEMA,
    OVERSCALING_SCHEMA,
    TRAINING_SCHEMA,
    ResultFrame,
    _DTYPES,
)
from repro.obs import trace as obs_trace
from repro.obs.trace import span as obs_span
from repro.dta.lut import DEFAULT_MIN_OCCURRENCES
from repro.flow.evaluate import DEFAULT_MAX_CYCLES
from repro.sim.spec import DEFAULT_SPEC, get_pipeline_spec
from repro.timing.profiles import DesignVariant

#: Default over-scaling factor ladder (paper Sec. IV-A).
DEFAULT_OVERSCALE_FACTORS = (1.0, 0.97, 0.94, 0.91, 0.88, 0.85)


def design_point_label(variant, voltage, pipeline_spec=None):
    """Display label of an operating point (matches
    :attr:`repro.lab.scenario.DesignPoint.label`).  ``pipeline_spec``
    (a preset name) is appended when non-default; the default spec is
    omitted so pre-spec labels are unchanged."""
    label = f"{variant}@{voltage:.2f}V"
    if pipeline_spec and pipeline_spec != DEFAULT_SPEC.name:
        label += f"/{pipeline_spec}"
    return label


#: The configuration labels of one evaluation row: the
#: :data:`EVALUATION_SCHEMA` columns its ``EvaluationResult`` does not
#: hold.
RowContext = namedtuple("RowContext", (
    "design_point", "variant", "voltage", "config", "policy", "generator",
    "margin_percent",
))


def _violation_cells(result):
    return [
        [v.cycle, v.stage.name, v.applied_period_ps, v.excited_delay_ps,
         v.driver_class]
        for v in result.violations
    ]


#: The one definition of the evaluation row layout: every
#: :data:`EVALUATION_SCHEMA` column, in schema order, with the getter of
#: its cell and whether the getter reads the row's :class:`RowContext`
#: (otherwise its ``EvaluationResult``).  :func:`evaluation_row` builds
#: one row from it and :func:`evaluation_frame` a whole frame, one
#: column at a time.
EVALUATION_FIELDS = (
    *((name, attrgetter(name), True) for name in RowContext._fields),
    ("program", attrgetter("program_name"), False),
    *((name, attrgetter(name), False) for name in (
        "num_cycles", "num_retired", "total_time_ps", "static_period_ps",
        "min_period_ps", "max_period_ps", "switch_rate",
        "average_period_ps", "effective_frequency_mhz", "speedup_percent",
    )),
    ("num_violations", lambda result: len(result.violations), False),
    ("violations", _violation_cells, False),
)


def evaluation_row(result, *, variant, voltage, config_label, policy,
                   generator, margin_percent, pipeline_spec=None):
    """One :data:`EVALUATION_SCHEMA` row from an ``EvaluationResult``.

    Field-for-field the sweep runner's canonical JSON row
    (:func:`repro.lab.runner.result_to_dict`), so Session evaluations and
    orchestrated sweep documents share one layout
    (:data:`EVALUATION_FIELDS`).  ``pipeline_spec`` distinguishes the
    ``design_point`` cell of non-default microarchitectures so spec axes
    never merge in group-bys.
    """
    context = RowContext(
        design_point_label(variant, voltage, pipeline_spec), variant,
        voltage, config_label, policy, generator, margin_percent,
    )
    return {
        name: get(context if from_context else result)
        for name, get, from_context in EVALUATION_FIELDS
    }


def evaluation_frame(contexts, results):
    """The :data:`EVALUATION_SCHEMA` frame whose row ``i`` is
    ``evaluation_row`` of ``results[i]`` under ``contexts[i]`` (a
    :class:`RowContext`), built one column at a time: equal to
    ``ResultFrame.from_rows`` over those rows, without the row dicts."""
    count = len(results)
    columns = {}
    for column, (name, get, from_context) in zip(EVALUATION_SCHEMA,
                                                 EVALUATION_FIELDS):
        cells = map(get, contexts if from_context else results)
        if column.kind == "str":
            cells = map(str, cells)
        columns[name] = np.fromiter(cells, _DTYPES[column.kind], count)
    return ResultFrame(columns, EVALUATION_SCHEMA)


def result_from_row(row):
    """Rehydrate an ``EvaluationResult`` from an evaluation row.

    The inverse of :func:`evaluation_row` up to the policy label (rows
    carry the config-spec policy name).  Lossless for every numeric field
    and the violation detail.
    """
    from repro.flow.evaluate import EvaluationResult, TimingViolation
    from repro.sim.trace import Stage

    return EvaluationResult(
        program_name=row["program"],
        policy_name=row["policy"],
        num_cycles=row["num_cycles"],
        num_retired=row["num_retired"],
        total_time_ps=row["total_time_ps"],
        static_period_ps=row["static_period_ps"],
        min_period_ps=row["min_period_ps"],
        max_period_ps=row["max_period_ps"],
        switch_rate=row["switch_rate"],
        violations=[
            TimingViolation(
                cycle=cycle,
                stage=Stage[stage],
                applied_period_ps=applied,
                excited_delay_ps=excited,
                driver_class=driver,
            )
            for cycle, stage, applied, excited, driver in row["violations"]
        ],
    )


def summarize_row(row):
    """One-line summary of an evaluation row (CLI output)."""
    return result_from_row(row).summary()


class Session:
    """One facade over the whole pipeline.

    Parameters
    ----------
    variant / voltage:
        The operating point (ignored when ``design`` is given).
    design:
        Optional pre-built :class:`~repro.timing.design.ProcessorDesign`.
    lut / characterization:
        Optional pre-computed delay LUT or full characterisation to reuse
        (characterisation is the expensive step).
    store:
        Optional :class:`~repro.lab.store.ArtifactStore` (or path);
        compiled traces, LUTs and sweep results are cached through it.
    jobs:
        Worker processes for sharded characterisation and grid sweeps.
    max_cycles:
        Pipeline-simulation cycle budget.
    min_occurrences:
        Characterisation extraction threshold.
    store_budget_bytes:
        Optional size budget; sweeps auto-``gc`` the store after merging
        so long campaigns self-limit.
    seed:
        Root seed of the synthetic netlist (``design`` construction).
    pipeline_spec:
        Microarchitecture of the simulated pipeline — a
        :class:`~repro.sim.spec.PipelineSpec`, a registered preset name
        (``"shallow5"``, ``"deep7"``, ...), or ``None`` for the default
        six-stage machine.  Non-default specs key their own compiled
        traces, LUTs and store artifacts.  Ignored when ``design`` is
        given (the design carries its spec).
    telemetry:
        ``True`` to collect spans on a fresh
        :class:`~repro.obs.trace.Tracer`, or a ``Tracer`` to share one
        across sessions.  While a session method runs, the tracer is the
        process-wide ambient tracer, so every layer (evaluate, compile,
        ISS, store) records onto the session's timeline — including
        spans shipped back from sweep/characterisation worker processes.
        Telemetry never changes results, fingerprints or stored bytes;
        read it back with :meth:`telemetry_frame` or export via
        :mod:`repro.obs.export`.  Default off (near-zero overhead).
    """

    def __init__(self, variant=DesignVariant.CRITICAL_RANGE.value,
                 voltage=0.70, *, design=None, lut=None,
                 characterization=None, store=None, jobs=1,
                 max_cycles=DEFAULT_MAX_CYCLES,
                 min_occurrences=DEFAULT_MIN_OCCURRENCES,
                 store_budget_bytes=None, seed=None, telemetry=None,
                 pipeline_spec=None):
        if design is not None:
            variant = design.variant.value
            voltage = design.library.voltage
            pipeline_spec = design.pipeline_spec
        elif isinstance(variant, DesignVariant):
            variant = variant.value
        pipeline_spec = get_pipeline_spec(pipeline_spec)
        self.variant = variant
        self.voltage = float(voltage)
        self.pipeline_spec = pipeline_spec
        self.jobs = max(1, int(jobs))
        self.max_cycles = int(max_cycles)
        self.min_occurrences = min_occurrences
        self.store_budget_bytes = store_budget_bytes
        self.seed = seed
        self._design = design
        self._lut = lut
        self._characterization = characterization
        if store is not None:
            from repro.lab.store import ArtifactStore

            if not isinstance(store, ArtifactStore):
                store = ArtifactStore(store)
        self.store = store
        if telemetry is True:
            telemetry = obs_trace.Tracer(label="session")
        elif telemetry is False:
            telemetry = None
        self.telemetry = telemetry

    @classmethod
    def for_design(cls, design, **kwargs):
        """A session bound to an existing design object."""
        return cls(design=design, **kwargs)

    # -- owned context -------------------------------------------------------

    @property
    def design(self):
        """The processor design at this session's operating point."""
        if self._design is None:
            from repro.timing.design import build_design

            self._design = build_design(
                DesignVariant(self.variant), voltage=self.voltage,
                seed=self.seed, pipeline_spec=self.pipeline_spec,
            )
        return self._design

    @property
    def design_point(self):
        return design_point_label(self.variant, self.voltage,
                                  self.pipeline_spec.name)

    @property
    def static_period_ps(self):
        return self.design.static_period_ps

    @property
    def static_frequency_mhz(self):
        from repro.utils.units import ps_to_mhz

        return ps_to_mhz(self.design.static_period_ps)

    @property
    def lut(self):
        """The characterised delay LUT (characterising on first use)."""
        return self.characterization.lut

    @property
    def characterization(self):
        """The session's cached characterisation (computed on first use)."""
        if self._characterization is None:
            if self._lut is not None:
                from repro.dta.lut import CharacterizationResult

                self._characterization = CharacterizationResult(
                    design=self.design, lut=self._lut
                )
            else:
                self._characterization = self.characterize()
        return self._characterization

    @property
    def dca(self):
        """A :class:`~repro.core.dca.DynamicClockAdjustment` view of the
        session (policy/generator factories bound to the LUT)."""
        from repro.core import DcaConfig, DynamicClockAdjustment

        return DynamicClockAdjustment(
            config=DcaConfig(
                variant=self.design.variant, voltage=self.voltage,
                min_occurrences=self.min_occurrences,
            ),
            characterization=self.characterization,
        )

    @contextmanager
    def _scope(self, name, **attrs):
        """Install the session tracer (if any) for the duration of one
        workflow call and record it as a ``session.*`` span."""
        if self.telemetry is None:
            with obs_span(name, **attrs):
                yield
            return
        previous = obs_trace.set_tracer(self.telemetry)
        try:
            with obs_span(name, **attrs):
                yield
        finally:
            obs_trace.set_tracer(previous)

    def telemetry_frame(self):
        """The collected spans as a :data:`TELEMETRY_SCHEMA` ResultFrame
        (requires a session constructed with ``telemetry=``)."""
        if self.telemetry is None:
            raise ValueError(
                "session has no telemetry; construct with telemetry=True"
            )
        from repro.obs.export import telemetry_frame as _telemetry_frame

        return _telemetry_frame(self.telemetry.snapshot())

    @contextmanager
    def _attached_store(self):
        """Attach the session store to the compiled-trace cache for the
        duration of one call (ambient store left alone when unset)."""
        if self.store is None:
            yield
            return
        from repro.dta.compiled import set_trace_store

        previous = set_trace_store(self.store)
        try:
            yield
        finally:
            set_trace_store(previous)

    def _resolve_programs(self, programs):
        from repro.workloads import resolve_program

        if programs is None:
            from repro.workloads.suite import benchmark_suite

            return benchmark_suite()
        single = not isinstance(programs, (list, tuple))
        if single:
            programs = [programs]
        return [
            resolve_program(spec) if isinstance(spec, str) else spec
            for spec in programs
        ]

    # -- characterisation ----------------------------------------------------

    def characterize(self, programs=None, *, min_occurrences=None,
                     sim_period_ps=None, keep_runs=False, via_store=None):
        """Characterise the session's design point.

        Returns the merged
        :class:`~repro.dta.lut.CharacterizationResult` and
        caches it on the session when called with default arguments.

        ``via_store`` controls the merged-LUT store fast path: ``None``
        (auto) uses :meth:`ArtifactStore.get_lut` for the default suite,
        ``False`` always runs the characterisation flow (still reading
        per-program batches through the store's ``charlut`` cache).
        """
        from repro.flow.characterize import (
            CharacterizationResult,
            _characterize_impl,
        )

        if min_occurrences is None:
            min_occurrences = self.min_occurrences
        default_call = (
            programs is None
            and min_occurrences == self.min_occurrences
            and sim_period_ps is None
        )
        if (default_call and not keep_runs
                and self._characterization is None
                and self._lut is not None):
            self._characterization = CharacterizationResult(
                design=self.design, lut=self._lut
            )
        if (default_call and self._characterization is not None
                and (not keep_runs or self._characterization.runs)):
            return self._characterization
        if via_store is None:
            via_store = (
                self.store is not None and programs is None
                and sim_period_ps is None and not keep_runs
            )
        with self._scope("session.characterize",
                         design_point=self.design_point):
            if via_store:
                lut = self.store.get_lut(
                    self.design, min_occurrences=min_occurrences,
                    jobs=self.jobs,
                )
                result = CharacterizationResult(design=self.design,
                                                lut=lut)
            else:
                result = _characterize_impl(
                    self.design, programs=programs,
                    min_occurrences=min_occurrences,
                    sim_period_ps=sim_period_ps, keep_runs=keep_runs,
                    jobs=self.jobs, store=self.store,
                )
        if default_call:
            self._characterization = result
        return result

    # -- evaluation ----------------------------------------------------------

    def _config_specs(self, policies, generators, margins, check_safety):
        from repro.lab.scenario import ConfigSpec

        return [
            ConfigSpec(
                policy=policy, generator=generator, margin_percent=margin,
                check_safety=check_safety,
            )
            for policy in policies
            for generator in generators
            for margin in margins
        ]

    def _materialize(self, specs):
        """ConfigSpecs → concrete SweepConfigs bound to this session (one
        shared factory per policy name); the design is characterised
        only when some row is a ConfigSpec."""
        from repro.lab.scenario import ConfigSpec, materialize_configs

        needs_dca = any(isinstance(spec, ConfigSpec) for spec in specs)
        return materialize_configs(specs, self.dca if needs_dca else None)

    def evaluate_results(self, programs, configs):
        """Evaluation as the ``[config][program]`` grid of
        ``EvaluationResult`` objects — the object-shaped view of
        :meth:`evaluate` for consumers that introspect violations or
        result properties directly.
        """
        from repro.flow import evaluate as _evaluate

        programs = list(programs)
        configs = list(configs)
        with self._scope("session.evaluate_results",
                         programs=len(programs),
                         configs=len(configs)), \
                self._attached_store():
            return _evaluate._evaluate_batch(
                programs, self.design, configs, max_cycles=self.max_cycles,
            )

    def evaluate(self, programs=None, configs=None, *, policies=None,
                 generators=None, margins=None, check_safety=True):
        """Evaluate programs under clock configurations → ResultFrame.

        Parameters
        ----------
        programs:
            Program objects, kernel names/assembly paths, or ``None`` for
            the Fig. 8 benchmark suite.
        configs:
            Explicit configuration rows
            (:class:`~repro.lab.scenario.ConfigSpec` or
            :class:`~repro.flow.evaluate.SweepConfig`); mutually
            exclusive with the axis keywords.
        policies / generators / margins:
            Axis shorthand; the cross product (policy-major) becomes the
            configuration rows.  Defaults: ``["instruction"]`` ×
            ``["ideal"]`` × ``[0.0]``.
        check_safety:
            Replay ground-truth delays and record violations (axis mode
            only; explicit configs carry their own flag).

        Returns a :class:`ResultFrame` with one row per (config, program),
        config-major in input order.
        """
        programs = self._resolve_programs(programs)
        if configs is not None:
            if policies or generators or margins:
                raise ValueError(
                    "pass either configs or policies/generators/margins, "
                    "not both"
                )
            specs = list(configs)
        else:
            specs = self._config_specs(
                list(policies) if policies is not None
                else ["instruction"],
                list(generators) if generators is not None else ["ideal"],
                [float(m) for m in (margins if margins is not None
                                    else [0.0])],
                check_safety,
            )
        concrete = self._materialize(specs)
        grid = self.evaluate_results(programs, concrete)
        return self._evaluation_frame(specs, concrete, grid)

    def _evaluation_frame(self, specs, configs, grid):
        """The evaluation frame of a ``[config][program]`` result grid,
        config-major (:func:`evaluation_frame`)."""
        design_point = design_point_label(self.variant, self.voltage,
                                          self.pipeline_spec.name)
        contexts = []
        results = []
        for spec, config, row in zip(specs, configs, grid):
            policy = getattr(spec, "policy", None)
            generator = self._generator_name(spec, config)
            for result in row:
                contexts.append(RowContext(
                    design_point, self.variant, self.voltage,
                    config.label or self._fallback_label(
                        result.policy_name, generator, config.margin_percent,
                    ),
                    (policy if isinstance(policy, str)
                     else result.policy_name),
                    generator, config.margin_percent,
                ))
            results.extend(row)
        return evaluation_frame(contexts, results)

    @staticmethod
    def _fallback_label(policy_name, generator_name, margin_percent):
        """Distinct label for unlabelled SweepConfigs: two configs that
        differ in any axis must never share a ``config`` cell (group-by
        over the column would silently merge them)."""
        label = f"{policy_name}/{generator_name}"
        if margin_percent:
            label += f"/margin={margin_percent:g}%"
        return label

    @staticmethod
    def _generator_name(spec, config):
        generator = getattr(spec, "generator", None)
        if isinstance(generator, str):
            return generator
        generator = config.make_generator()
        if generator is None:
            return "ideal"
        return getattr(generator, "name", type(generator).__name__)

    # -- orchestrated sweeps -------------------------------------------------

    def sweep(self, grid, *, resume=False, progress=None, runner=None,
              manifest_path=None, on_unit=None):
        """Run a scenario grid through the parallel sweep runner.

        The runner inherits the session's store, worker count and store
        budget; the merged outcome is a frame-backed
        :class:`~repro.lab.runner.SweepRunResult` (``.frame`` holds the
        :class:`ResultFrame`, serialisation is unchanged).

        ``on_unit(done, total)`` is called as units complete (once up
        front with the resumed count) — the hook behind
        ``repro sweep --progress``.
        """
        from repro.lab.runner import SweepRunner
        from repro.lab.scenario import ScenarioGrid

        if not isinstance(grid, ScenarioGrid):
            grid = ScenarioGrid.from_file(grid)
        if runner is None:
            runner = SweepRunner(
                grid, store=self.store, jobs=self.jobs,
                manifest_path=manifest_path,
                store_budget_bytes=self.store_budget_bytes,
            )
        with self._scope("session.sweep", grid=grid.name,
                         jobs=self.jobs):
            return runner._execute(resume=resume, progress=progress,
                                   on_unit=on_unit)

    def sweep_frame(self, grid, *, cache_name=None, resume=False,
                    on_unit=None):
        """Sweep a grid with a store-level result cache → ``(frame,
        cached)``.

        Looks the grid up in the session store's frame cache first
        (``cache_name`` defaults to ``"sweep-frame:<fingerprint>"``, so
        any byte-identical grid — same axes, same learned-model bytes —
        hits the same entry).  On a hit the stored
        :class:`ResultFrame` is returned with zero simulation; on a
        miss the grid is swept via :meth:`sweep` and the frame saved
        back.  This is the unit of work behind the ``repro.serve``
        sweep service, where the cache dedups across tenants and across
        server processes sharing one store root.
        """
        from repro.lab.scenario import ScenarioGrid

        if not isinstance(grid, ScenarioGrid):
            grid = ScenarioGrid.from_file(grid)
        if self.store is not None:
            if cache_name is None:
                cache_name = f"sweep-frame:{grid.fingerprint()}"
            frame = self.store.load_frame(cache_name)
            if frame is not None:
                if on_unit is not None:
                    total = len(frame)
                    on_unit(total, total)
                return frame, True
        result = self.sweep(grid, resume=resume, on_unit=on_unit)
        frame = result.frame
        if self.store is not None:
            self.store.save_frame(cache_name, frame)
        return frame, False

    def training_table(self, grid, *, resume=False, progress=None,
                       on_unit=None):
        """Policy-training data generator: one flat table over the grid.

        Sweeps margins × voltages × variants × policies × workloads and
        returns the evaluation frame extended with flat learning targets
        (:data:`TRAINING_SCHEMA`): ``safe`` (1 when violation-free),
        ``ipc`` (retired per cycle) and ``normalized_period``
        (average applied period over the static period — the
        frequency-over-scaling gain a learned DFS policy predicts).

        Safety checking is forced on: the ``safe`` label needs the
        ground-truth violation replay, so a grid with
        ``check_safety=False`` is transparently re-run with it enabled.

        :func:`repro.ml.train.train_policy` is the primary consumer:
        it sweeps the grid through this method (baselines + store
        warming) and then fits a deployable
        :class:`~repro.clocking.policies.LearnedPolicy` on the per-cycle
        genie targets of the same grid.
        """
        from repro.lab.scenario import ScenarioGrid

        if not isinstance(grid, ScenarioGrid):
            grid = ScenarioGrid.from_file(grid)
        if not grid.check_safety:
            grid = ScenarioGrid.from_dict(
                {**grid.to_dict(), "check_safety": True}
            )
        result = self.sweep(grid, resume=resume, progress=progress,
                            on_unit=on_unit)
        frame = result.frame
        num_cycles = frame["num_cycles"]
        safe = (frame["num_violations"] == 0).astype(int)
        ipc = [
            (retired / cycles if cycles else float("nan"))
            for retired, cycles in zip(frame["num_retired"], num_cycles)
        ]
        normalized = [
            (average / static if static else float("nan"))
            for average, static in zip(
                frame["average_period_ps"], frame["static_period_ps"]
            )
        ]
        frame = frame.with_column("safe", "int", safe)
        frame = frame.with_column("ipc", "float", ipc)
        frame = frame.with_column("normalized_period", "float", normalized)
        assert frame.schema == TRAINING_SCHEMA
        return frame

    # -- drift adaptation ----------------------------------------------------

    def adapt_results(self, programs, environment, schemes=None,
                      update_interval=150, tracking_margin=0.025):
        """Drift adaptation as ``AdaptiveEvaluationResult`` objects, one
        per (program, scheme) — the object-shaped view of
        :meth:`adapt`."""
        from repro.adapt import online as _online

        if schemes is None:
            schemes = _online.SCHEMES
        programs = list(programs)
        schemes = list(schemes)
        results = []
        with self._scope("session.adapt", programs=len(programs),
                         schemes=len(schemes)), \
                self._attached_store():
            for program in programs:
                for scheme in schemes:
                    results.append(_online._evaluate_with_drift_impl(
                        program, self.design, self.lut, environment,
                        scheme=scheme, update_interval=update_interval,
                        tracking_margin=tracking_margin,
                        max_cycles=self.max_cycles,
                    ))
        return results

    def adapt(self, programs, environment, *, schemes=None,
              update_interval=150, tracking_margin=0.025):
        """Evaluate programs under environmental drift → ResultFrame.

        One row per (program, scheme); ``schemes`` defaults to all three
        (``fixed-none``, ``fixed-guard``, ``online``).
        """
        from repro.adapt.online import SCHEMES

        programs = self._resolve_programs(programs)
        schemes = list(schemes or SCHEMES)
        results = self.adapt_results(
            programs, environment, schemes, update_interval,
            tracking_margin,
        )
        rows = [
            {
                "program": result.program_name,
                "scheme": result.scheme,
                "num_cycles": result.num_cycles,
                "total_time_ps": result.total_time_ps,
                "violations": result.violations,
                "lut_updates": result.lut_updates,
                "max_drift_seen": result.max_drift_seen,
                "average_period_ps": result.average_period_ps,
                "effective_frequency_mhz": result.effective_frequency_mhz,
            }
            for result in results
        ]
        return ResultFrame.from_rows(rows, ADAPT_SCHEMA)

    # -- over-scaling --------------------------------------------------------

    def overscaling_reports(self, program, factors=None, max_cycles=None):
        """Over-scaling scan as ``OverscalingReport`` objects, one per
        factor — the object-shaped view of :meth:`overscaling`."""
        from repro.approx import violations as _violations

        if factors is None:
            factors = DEFAULT_OVERSCALE_FACTORS
        factors = list(factors)
        if max_cycles is None:
            max_cycles = self.max_cycles
        with self._scope("session.overscaling", program=program.name,
                         factors=len(factors)), \
                self._attached_store():
            return [
                _violations._evaluate_overscaling_impl(
                    program, self.design, self.lut, factor,
                    max_cycles=max_cycles,
                )
                for factor in factors
            ]

    def overscaling(self, programs, factors=None):
        """Over-scaling scan: clock beyond the safe bound → ResultFrame.

        One row per (program, factor); ``factors`` defaults to the
        paper's ladder (:data:`DEFAULT_OVERSCALE_FACTORS`).
        """
        programs = self._resolve_programs(programs)
        factors = list(factors or DEFAULT_OVERSCALE_FACTORS)
        rows = []
        for program in programs:
            for report in self.overscaling_reports(program, factors):
                rows.append({
                    "program": report.program_name,
                    "overscale_factor": report.overscale_factor,
                    "num_cycles": report.num_cycles,
                    "total_time_ps": report.total_time_ps,
                    "violation_cycles": report.violation_cycles,
                    "violation_rate": report.violation_rate,
                    "num_approx_results": len(report.approx_results),
                    "mean_corrupted_bits": report.mean_corrupted_bits,
                    "mean_relative_error": report.mean_relative_error,
                    "violations_by_stage": dict(report.violations_by_stage),
                    "violations_by_class": dict(report.violations_by_class),
                })
        return ResultFrame.from_rows(rows, OVERSCALING_SCHEMA)

    # -- store maintenance ---------------------------------------------------

    def gc(self, max_bytes=None, dry_run=False):
        """Evict least-recently-used store artifacts down to a budget
        (defaults to the session's ``store_budget_bytes``)."""
        if self.store is None:
            raise ValueError("session has no artifact store")
        if max_bytes is None:
            max_bytes = self.store_budget_bytes
        if max_bytes is None:
            raise ValueError(
                "no size budget: pass max_bytes or set store_budget_bytes"
            )
        return self.store.gc(max_bytes=max_bytes, dry_run=dry_run)

    def __repr__(self):
        return (
            f"Session({self.design_point}, jobs={self.jobs}, store="
            f"{str(self.store.root) if self.store else None!r})"
        )
