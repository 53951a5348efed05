"""Parallel sweep execution over scenario grids.

A :class:`SweepRunner` executes a :class:`~repro.lab.scenario.ScenarioGrid`
as a stream of *work units* — one per (design point, workload) — through
the compiled-trace batch engine:

- **sharding**: units are independent, so ``jobs > 1`` fans them out over
  a ``ProcessPoolExecutor``; every worker attaches the shared artifact
  store, so pipeline simulation and characterisation happen at most once
  per artifact *across the whole fleet* (first toucher writes, everyone
  else reads);
- **store warming**: the parent characterises each design point's LUT
  into the store up front, so workers never duplicate the most expensive
  step;
- **deterministic merge**: results are reassembled in canonical
  (design point, config, workload) order regardless of completion order,
  and each row is produced by exactly the same array math as the serial
  in-process ``Session.evaluate`` path — parallel results are bit-identical
  to serial ones;
- **resume**: every completed unit is checkpointed into a run manifest
  keyed by the grid fingerprint; re-running with ``resume=True`` skips
  finished units after an interrupt;
- **export**: the merged outcome is backed by a columnar
  :class:`~repro.api.frame.ResultFrame` (``result.frame``) and
  serialises to JSON (``write_json``) and flat CSV (``write_csv``) for
  dashboards;
- **self-limiting stores**: an optional ``store_budget_bytes`` runs an
  LRU ``gc`` pass after every merge, so long campaigns keep the artifact
  store bounded.

``SweepRunner.run`` is a legacy shim over
:meth:`repro.api.Session.sweep`; the Session drives the execution engine
(:meth:`SweepRunner._execute`) directly.
"""

import json
import os
import pathlib
import time
from dataclasses import dataclass, field

from repro.api.frame import EVALUATION_SCHEMA, ResultFrame
from repro.lab.scenario import ScenarioGrid, materialize_configs
from repro.lab.store import ArtifactStore, StoreStats
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.trace import span as obs_span

#: Manifest layout version (independent of the artifact-store schema).
MANIFEST_VERSION = 1

#: Pending-unit count below which a ``jobs > 1`` sweep runs in-process:
#: spawning workers, re-importing the stack and re-attaching the store
#: costs hundreds of milliseconds, which a handful of units never earns
#: back (the PR-2 bench measured parallel_speedup 0.88 on an 18-unit
#: warm sweep).  The fallback is recorded on the run result
#: (``jobs_effective`` / ``parallel_fallback``).
PARALLEL_MIN_UNITS = 24


def result_to_dict(result, design_point, spec):
    """Canonical JSON row of one :class:`EvaluationResult`.

    One delegation to :func:`repro.api.session.evaluation_row` — the
    single definition of the row layout — so orchestrated sweep rows
    and in-process Session frames can never drift apart.  Floats are
    carried verbatim (``repr`` round-trip), so two runs are
    bit-identical exactly when their serialised rows are equal — the
    property the parallel-vs-serial acceptance check relies on.
    """
    from repro.api.session import evaluation_row

    return evaluation_row(
        result,
        variant=design_point.variant,
        voltage=design_point.voltage,
        config_label=spec.label,
        policy=spec.policy,
        generator=spec.generator,
        margin_percent=spec.margin_percent,
        pipeline_spec=design_point.pipeline_spec,
    )


# -- worker side -------------------------------------------------------------
#
# Workers are initialised once per process (grid + store attachment) and
# then cache one evaluation context — design, characterised DCA, concrete
# SweepConfigs — per design point, so a worker that receives many units
# of the same operating point builds it once.

_WORKER = {}


def _worker_init(grid_dict, store_root, telemetry=False, ship_obs=False,
                 luts=None):
    """Set up a unit executor (a pool worker, or the parent for a serial
    run).  ``luts`` maps design points to LUTs the caller already loaded
    (a serial run's :meth:`SweepRunner.warm_luts`), so the executor does
    not read and verify them from the store a second time."""
    from repro.dta.compiled import set_trace_store, simulation_count

    if telemetry:
        # subprocess shard of a traced sweep: record spans locally and
        # ship them back with each result batch (the parent merges them
        # onto its timeline as a per-worker track).  Always a fresh
        # tracer — under fork the child inherits the parent's, and
        # recording onto it would mislabel worker spans as the parent's.
        obs_trace.set_tracer(obs_trace.Tracer(label=f"worker-{os.getpid()}"))
    store = ArtifactStore(store_root) if store_root else None
    previous = set_trace_store(store) if store is not None else None
    _WORKER.clear()
    _WORKER.update(
        grid=ScenarioGrid.from_dict(grid_dict),
        store=store,
        previous_store=previous,
        contexts={},
        luts=luts or {},
        # baseline, not reset: simulations run before this sweep (other
        # tests, fork-inherited counters) must not be attributed to it
        sim_baseline=simulation_count(),
        # ship_obs marks a subprocess shard: counter deltas (and spans)
        # ride back through the result channel.  Serial in-process runs
        # leave it off — their increments land in the parent's ambient
        # registry/tracer directly, so shipping would double count.
        ship_obs=ship_obs,
        obs_baseline=obs_metrics.gather() if ship_obs else None,
    )


def _worker_teardown():
    """Restore the previously attached store (serial in-process runs share
    the module-global trace-store slot with their caller)."""
    from repro.dta.compiled import set_trace_store

    if _WORKER.get("store") is not None:
        set_trace_store(_WORKER.get("previous_store"))
    _WORKER.clear()


def _context_for(design_point):
    context = _WORKER["contexts"].get(design_point)
    if context is not None:
        return context

    from repro.core import DcaConfig, DynamicClockAdjustment
    from repro.dta.lut import CharacterizationResult

    design = design_point.build()
    store = _WORKER["store"]
    lut = _WORKER["luts"].get(design_point)
    if lut is None and store is not None:
        lut = store.get_lut(design)
    elif lut is None:
        from repro.flow.characterize import _characterize_impl

        lut = _characterize_impl(design, keep_runs=False).lut
    dca = DynamicClockAdjustment(
        config=DcaConfig(variant=design.variant,
                         voltage=design_point.voltage),
        characterization=CharacterizationResult(design=design, lut=lut),
    )
    specs = _WORKER["grid"].config_specs()
    configs = materialize_configs(specs, dca)
    context = (design, specs, configs)
    _WORKER["contexts"][design_point] = context
    return context


def _run_units(design_point, workloads):
    """Evaluate a batch of same-design-point units against every config.

    One :func:`~repro.flow.evaluate._evaluate_batch` call covers every
    workload in the batch; it compiles the programs one at a time, so
    the rows are bit-identical to running units one at a time.  Returns
    ``(rows_per_unit, store_stats_delta, simulations_delta, obs_delta)``
    — counters are snapshotted per batch so the parent can aggregate
    them across any number of workers; ``obs_delta`` is ``None`` except
    in subprocess shards, where it carries the worker's registry counter
    deltas and span buffer.
    """
    from repro.dta.compiled import simulation_count
    from repro.flow.evaluate import _evaluate_batch
    from repro.workloads import resolve_program

    grid = _WORKER["grid"]
    with obs_span("sweep.unit_batch", design_point=str(design_point.key),
                  units=len(workloads)):
        design, specs, configs = _context_for(design_point)
        programs = [resolve_program(workload) for workload in workloads]
        grid_results = _evaluate_batch(
            programs, design, configs,
            max_cycles=grid.max_cycles,
        )
        rows_per_unit = [
            [
                result_to_dict(config_row[position], design_point, spec)
                for spec, config_row in zip(specs, grid_results)
            ]
            for position in range(len(programs))
        ]
    store = _WORKER["store"]
    stats = store.stats.as_dict() if store is not None else None
    if store is not None:
        store.stats.reset()
    count = simulation_count()
    simulations = count - _WORKER["sim_baseline"]
    _WORKER["sim_baseline"] = count
    obs = None
    if _WORKER.get("ship_obs"):
        tracer = obs_trace.get_tracer()
        obs = {
            "counters": obs_metrics.delta_since(_WORKER["obs_baseline"]),
            "spans": tracer.drain() if tracer is not None else [],
        }
        _WORKER["obs_baseline"] = obs_metrics.gather()
    return rows_per_unit, stats, simulations, obs


def _run_unit(design_point, workload):
    """Single-unit wrapper over :func:`_run_units`."""
    rows_per_unit, stats, simulations, _ = _run_units(
        design_point, [workload]
    )
    return rows_per_unit[0], stats, simulations


def _run_units_task(payload):
    """Pool entry point: payload is
    ``(design_point, [(unit_id, workload), ...])``."""
    design_point, units = payload
    rows_per_unit, stats, simulations, obs = _run_units(
        design_point, [workload for _, workload in units]
    )
    unit_rows = [
        (unit_id, rows)
        for (unit_id, _), rows in zip(units, rows_per_unit)
    ]
    return unit_rows, stats, simulations, obs


# -- parent side -------------------------------------------------------------


@dataclass
class SweepRunResult:
    """Merged outcome of one sweep run, backed by a columnar frame.

    ``frame`` is the :class:`~repro.api.frame.ResultFrame` of merged
    evaluation rows (:data:`~repro.api.frame.EVALUATION_SCHEMA`);
    ``rows`` remains as the legacy list-of-dicts view of the same data.
    """

    grid: ScenarioGrid
    frame: ResultFrame
    seconds: float
    jobs: int
    units_total: int
    units_run: int
    units_resumed: int
    simulations: int
    #: Worker count actually used: ``jobs`` unless the small-run
    #: in-process fallback decided process-pool spin-up would cost more
    #: than it buys (see :data:`PARALLEL_MIN_UNITS`).
    jobs_effective: int = None
    #: True when ``jobs > 1`` was requested but the run executed
    #: in-process because too few units were pending.
    parallel_fallback: bool = False
    store_stats: StoreStats = None
    manifest_path: pathlib.Path = None
    #: ``grid.fingerprint()`` as of the run (the files the grid names
    #: included); ``None`` digests the grid on demand.
    fingerprint: str = None
    _rows: list = field(default=None, repr=False, compare=False)

    @classmethod
    def from_rows(cls, rows, **kwargs):
        return cls(
            frame=ResultFrame.from_rows(rows, EVALUATION_SCHEMA), **kwargs
        )

    @property
    def rows(self):
        """Legacy row-dict view (cached) of :attr:`frame`."""
        if self._rows is None:
            self._rows = self.frame.to_rows()
        return self._rows

    def to_dict(self):
        return {
            "grid": self.grid.to_dict(),
            "fingerprint": self.fingerprint or self.grid.fingerprint(),
            "results": self.rows,
            "seconds": self.seconds,
            "jobs": self.jobs,
            "jobs_effective": (
                self.jobs if self.jobs_effective is None
                else self.jobs_effective
            ),
            "parallel_fallback": self.parallel_fallback,
            "units": {
                "total": self.units_total,
                "run": self.units_run,
                "resumed": self.units_resumed,
            },
            "simulations": self.simulations,
            "store": (
                self.store_stats.as_dict()
                if self.store_stats is not None else None
            ),
        }

    #: :meth:`to_dict` keys that describe one run rather than its
    #: results (timing, worker counts, units resumed, store traffic).
    PER_RUN_FIELDS = ("seconds", "jobs", "jobs_effective", "parallel_fallback",
                      "units", "simulations", "store")

    def stored_dict(self):
        """:meth:`to_dict` without the :data:`PER_RUN_FIELDS`: the merged
        document a store keeps, byte-identical across reruns of a grid."""
        document = self.to_dict()
        for name in self.PER_RUN_FIELDS:
            del document[name]
        return document

    def write_json(self, path):
        text = json.dumps(self.to_dict(), indent=2, sort_keys=True)
        pathlib.Path(path).write_text(text + "\n")
        return text

    #: Flat columns exported to CSV (violation details stay in the JSON).
    CSV_COLUMNS = (
        "design_point", "config", "program", "num_cycles",
        "average_period_ps", "effective_frequency_mhz", "speedup_percent",
        "num_violations",
    )

    def write_csv(self, path):
        return self.frame.to_csv(path, columns=list(self.CSV_COLUMNS))

    @property
    def num_violations(self):
        return int(self.frame["num_violations"].sum())


class SweepRunner:
    """Executes a scenario grid, optionally sharded and store-backed.

    Parameters
    ----------
    grid:
        The :class:`~repro.lab.scenario.ScenarioGrid` to run.
    store:
        Optional :class:`~repro.lab.store.ArtifactStore` (or path);
        compiled traces and LUTs are read from / written through it.
    jobs:
        Worker processes; 1 runs serially in-process.
    manifest_path:
        Where to checkpoint completed units.  Defaults to
        ``<store>/manifests/<fingerprint>.json`` when a store is given;
        without a store (and without an explicit path) no manifest is
        written and resume is unavailable.
    store_budget_bytes:
        Optional size budget; after each merged run the store is
        LRU-``gc``-ed down to it, so long campaigns self-limit.
    parallel_threshold:
        Minimum pending-unit count before ``jobs > 1`` actually spins up
        a process pool; below it the run falls back in-process (pool
        startup dominates small runs).  Defaults to
        :data:`PARALLEL_MIN_UNITS`; pass ``0`` to force the pool.
    """

    def __init__(self, grid, store=None, jobs=1, manifest_path=None,
                 store_budget_bytes=None, parallel_threshold=None):
        self.grid = grid
        if store is not None and not isinstance(store, ArtifactStore):
            store = ArtifactStore(store)
        self.store = store
        self.jobs = max(1, int(jobs))
        self.store_budget_bytes = store_budget_bytes
        self.parallel_threshold = (
            PARALLEL_MIN_UNITS if parallel_threshold is None
            else parallel_threshold
        )
        self._manifest_path = manifest_path
        self._fingerprint = None

    @property
    def fingerprint(self):
        """``grid.fingerprint()``, digested once per run (each
        :meth:`_execute` re-digests, so an edited workload file is seen);
        the manifest, every unit checkpoint and the merged document share
        it."""
        if self._fingerprint is None:
            self._fingerprint = self.grid.fingerprint()
        return self._fingerprint

    @property
    def manifest_path(self):
        path = self._manifest_path
        if path is None and self.store is not None:
            path = self.store.root / "manifests" / f"{self.fingerprint}.json"
        return pathlib.Path(path) if path else None

    # -- units ---------------------------------------------------------------

    def units(self):
        """Canonical (unit_id, design_point, workload) triples.

        Unit ids use :attr:`DesignPoint.key` (full-precision voltage),
        so nearly-equal operating points never share an id."""
        return [
            (f"{point.key}/{workload}", point, workload)
            for point in self.grid.design_points()
            for workload in self.grid.workload_specs()
        ]

    # -- manifest ------------------------------------------------------------
    #
    # With a store, completed unit rows are checkpointed as individual
    # store results and the manifest holds only unit ids — rewriting it
    # once per completed batch stays O(units), not O(units x rows).
    # Without a store the rows are inlined (no-store runs are
    # small/ephemeral).

    _STORE_REF = "$store"

    def _unit_result_name(self, unit_id):
        return f"unit:{self.fingerprint}:{unit_id}"

    def _load_manifest(self):
        if self.manifest_path is None or not self.manifest_path.is_file():
            return {}
        try:
            payload = json.loads(self.manifest_path.read_text())
        except ValueError:
            return {}
        if (payload.get("version") != MANIFEST_VERSION
                or payload.get("fingerprint") != self.fingerprint):
            return {}
        completed = {}
        for unit_id, value in payload.get("completed", {}).items():
            if value == self._STORE_REF:
                rows = (
                    self.store.load_result(self._unit_result_name(unit_id))
                    if self.store is not None else None
                )
                if rows is None:      # missing/corrupt checkpoint: re-run
                    continue
                completed[unit_id] = rows
            else:
                completed[unit_id] = value
        return completed

    def _checkpoint_units(self, completed, unit_rows):
        """Record one completed batch of ``(unit_id, rows)``: each unit's
        rows as its own store result, then the manifest once.  A batch
        finishes as a whole (one ``_run_units`` call), so a per-batch
        manifest resumes exactly the units a per-unit one would."""
        for unit_id, rows in unit_rows:
            completed[unit_id] = rows
            if self.manifest_path is not None and self.store is not None:
                self.store.save_result(self._unit_result_name(unit_id), rows)
        if self.manifest_path is None:
            return
        if self.store is not None:
            payload_completed = dict.fromkeys(completed, self._STORE_REF)
        else:
            payload_completed = completed
        self.manifest_path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "version": MANIFEST_VERSION,
            "fingerprint": self.fingerprint,
            "grid": self.grid.to_dict(),
            "completed": payload_completed,
        }
        tmp = self.manifest_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True))
        os.replace(tmp, self.manifest_path)

    # -- execution -----------------------------------------------------------

    def warm_luts(self):
        """Characterise every design point's LUT into the store up front,
        so parallel workers never duplicate gate-level simulation.

        Characterisation itself is sharded over the runner's worker count:
        each program's gate-sim batch lands in the store's per-program
        ``charlut`` cache and the merged LUT is assembled in canonical
        suite order, so the result is bit-identical to a serial
        characterisation — and a killed warm-up resumes by recomputing
        only the missing batches.

        Returns the LUT of every design point (empty without a store); a
        serial run hands them to its unit executor, which then reads no
        LUT again."""
        if self.store is None:
            return {}
        points = self.grid.design_points()
        with obs_span("sweep.warm_luts", design_points=len(points)):
            return {
                point: self.store.get_lut(point.build(), jobs=self.jobs)
                for point in points
            }

    def run(self, resume=False, progress=None):
        """Execute the grid; returns a :class:`SweepRunResult`.

        .. deprecated::
            Legacy shim over :meth:`repro.api.Session.sweep`
            (bit-identical); new code should build a Session once and
            sweep through it.

        ``resume=True`` reuses completed units from the manifest of a
        previous (interrupted) run of the *same* grid; a manifest from a
        different grid fingerprint is ignored.
        """
        from repro.api import Session

        session = Session(
            store=self.store, jobs=self.jobs,
            store_budget_bytes=self.store_budget_bytes,
        )
        return session.sweep(
            self.grid, resume=resume, progress=progress, runner=self
        )

    def _execute(self, resume=False, progress=None, on_unit=None):
        """The execution engine behind :meth:`run` /
        :meth:`repro.api.Session.sweep`.

        ``on_unit(done, total)`` is called after every completed unit
        (and once up front with the resumed count) — the hook behind
        ``repro sweep --progress``.
        """
        start = time.perf_counter()
        self._fingerprint = self.grid.fingerprint()
        stats = None
        if self.store is not None:
            stats = StoreStats()
            self.store.stats.reset()   # count this run's traffic only
        simulations = 0

        completed = self._load_manifest() if resume else {}
        units = self.units()
        pending = [unit for unit in units if unit[0] not in completed]
        resumed = len(units) - len(pending)

        jobs_effective = self.jobs
        parallel_fallback = False
        if (self.jobs > 1 and len(pending) < self.parallel_threshold
                and not obs_trace.is_enabled()):
            # a traced parallel sweep must show actual parallel execution
            # (per-worker tracks), so tracing bypasses the small-run
            # in-process fallback; untraced runs keep the perf heuristic
            jobs_effective = 1
            parallel_fallback = True

        if progress:
            progress(
                f"{self.grid.name}: {len(units)} units "
                f"({resumed} resumed), {len(self.grid.config_specs())} "
                f"configs, jobs={self.jobs}"
                + (" (in-process: small run)" if parallel_fallback else "")
            )
        if on_unit:
            on_unit(resumed, len(units))

        luts = self.warm_luts()
        self._absorb_store_stats(stats)

        if pending:
            done_state = {"done": resumed, "total": len(units)}

            def unit_done():
                done_state["done"] += 1
                if on_unit:
                    on_unit(done_state["done"], done_state["total"])

            if jobs_effective == 1:
                outcomes = self._run_serial(pending, completed, progress,
                                            unit_done, luts)
            else:
                outcomes = self._run_parallel(pending, completed, progress,
                                              jobs_effective, unit_done)
            for unit_stats, unit_simulations, obs in outcomes:
                if stats is not None and unit_stats is not None:
                    stats.merge(unit_stats)
                simulations += unit_simulations
                if obs is not None:
                    # subprocess shard: fold the worker's counter deltas
                    # into the parent registry (the historical fix for
                    # counters vanishing in --jobs N sweeps) and its
                    # spans onto the parent timeline
                    obs_metrics.merge(obs["counters"])
                    obs_trace.merge_worker_spans(obs["spans"])
            # the unit checkpoints went through the parent's store
            self._absorb_store_stats(stats)

        with obs_span("sweep.merge", units=len(units)):
            rows = self._merge(completed)
        result = SweepRunResult.from_rows(
            rows,
            grid=self.grid,
            fingerprint=self.fingerprint,
            seconds=time.perf_counter() - start,
            jobs=self.jobs,
            units_total=len(units),
            units_run=len(pending),
            units_resumed=resumed,
            simulations=simulations,
            jobs_effective=jobs_effective,
            parallel_fallback=parallel_fallback,
            store_stats=stats,
            manifest_path=self.manifest_path,
        )
        if self.store is not None:
            # the run-invariant part only: a warm rerun finds the same
            # bytes and rewrites nothing.  Saved after the run's counters
            # were taken, so they never include it
            self.store.save_result(
                f"sweep:{self.fingerprint}", result.stored_dict()
            )
            # self-limiting campaigns: LRU-evict down to the budget after
            # every merge (checkpoints and results are all recomputable)
            if self.store_budget_bytes is not None:
                self.store.gc(max_bytes=self.store_budget_bytes)
        return result

    def _absorb_store_stats(self, stats):
        """Move the parent store's counters into the run's ``stats``.

        Units run against their own store handle (see
        :func:`_worker_init`) and ship per-batch deltas; the parent's
        handle counts the manifest loads, the LUT warm-up and the unit
        checkpoints (:meth:`_checkpoint_units`)."""
        if stats is not None:
            stats.merge(self.store.stats)
            self.store.stats.reset()

    @staticmethod
    def _grouped(pending):
        """Group pending units by design point, preserving canonical
        order (``units()`` is design-point-major, so groups are runs)."""
        groups = []
        for unit_id, point, workload in pending:
            if groups and groups[-1][0] == point:
                groups[-1][1].append((unit_id, workload))
            else:
                groups.append((point, [(unit_id, workload)]))
        return groups

    def _run_serial(self, pending, completed, progress, unit_done=None,
                    luts=None):
        store_root = str(self.store.root) if self.store is not None else None
        _worker_init(self.grid.to_dict(), store_root, luts=luts)
        outcomes = []
        try:
            for point, group in self._grouped(pending):
                rows_per_unit, unit_stats, unit_simulations, obs = (
                    _run_units(point, [workload for _, workload in group])
                )
                outcomes.append((unit_stats, unit_simulations, obs))
                unit_rows = [
                    (unit_id, rows)
                    for (unit_id, _), rows in zip(group, rows_per_unit)
                ]
                self._checkpoint_units(completed, unit_rows)
                for unit_id, _ in unit_rows:
                    if progress:
                        progress(f"  done {unit_id}")
                    if unit_done:
                        unit_done()
        finally:
            _worker_teardown()
        return outcomes

    def _run_parallel(self, pending, completed, progress, jobs,
                      unit_done=None):
        from repro.lab.jobqueue import ShardPool

        store_root = str(self.store.root) if self.store is not None else None
        # shard each design point's units into ~jobs batches, so every
        # worker gets one _evaluate_batch call per (design point, shard)
        tasks = []
        for point, group in self._grouped(pending):
            chunk = max(1, -(-len(group) // jobs))
            for index in range(0, len(group), chunk):
                tasks.append((point, group[index:index + chunk]))
        pool = ShardPool(
            jobs,
            initializer=_worker_init,
            initargs=(self.grid.to_dict(), store_root,
                      obs_trace.is_enabled(), True),
        )
        outcomes = []
        for unit_rows, unit_stats, unit_simulations, obs in pool.run(
                _run_units_task, tasks):
            outcomes.append((unit_stats, unit_simulations, obs))
            self._checkpoint_units(completed, unit_rows)
            for unit_id, _ in unit_rows:
                if progress:
                    progress(f"  done {unit_id}")
                if unit_done:
                    unit_done()
        return outcomes

    def _merge(self, completed):
        """Reassemble rows in canonical (design point, config, workload)
        order — independent of unit completion order."""
        specs = self.grid.config_specs()
        workloads = self.grid.workload_specs()
        rows = []
        for point in self.grid.design_points():
            for config_index in range(len(specs)):
                for workload in workloads:
                    unit_id = f"{point.key}/{workload}"
                    rows.append(completed[unit_id][config_index])
        return rows
