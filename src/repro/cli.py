"""Command-line interface.

Exposes the main flows as subcommands::

    python -m repro kernels                    # list bundled workloads
    python -m repro asm program.s              # assemble + listing
    python -m repro run crc32                  # functional + cycle run
    python -m repro sta [--variant ...]        # static timing analysis
    python -m repro characterize -o lut.json   # full characterisation
    python -m repro evaluate crc32 --policy instruction [--lut lut.json]
    python -m repro table2 [--lut lut.json]    # Table II view of a LUT
    python -m repro store gc --store DIR --max-size 500M [--dry-run]
    python -m repro train --grid grid.json -o model.npz   # learn a policy
    python -m repro profile grid.json --jobs 4            # where time goes
    python -m repro serve --store .repro-store --port 8787  # sweep service
    python -m repro submit --grid grid.json --wait --tenant alice

``train`` fits a learned clock policy (ML-DFS, see :mod:`repro.ml`) on
a scenario grid's per-cycle genie ground truth, calibrates it for
safety, writes the model artifact and self-evaluates it against the
static baseline.  The result deploys anywhere a policy name is
accepted, as ``learned:<model.npz>``::

    python -m repro evaluate crc32 --policy learned:model.npz

A missing or corrupt model file exits with code 2 (naming the path)
before any simulation or characterisation runs.

Scenario grids run whole experiments through the parallel sweep runner
(:mod:`repro.lab`) with a persistent artifact store, e.g.::

    python -m repro sweep --grid grid.json --jobs 4 \\
        --store .repro-store --resume --json sweep.json --csv sweep.csv

where ``grid.json`` declares the axes to cross::

    {"name": "margins", "policies": ["instruction", "genie"],
     "margins": [0.0, 5.0], "voltages": [0.70, 0.80],
     "workloads": ["crc32", "matmult"]}

A warm store skips pipeline simulation and characterisation entirely;
``--resume`` continues an interrupted run from its manifest;
``--store-max-size 500M`` LRU-evicts the store down to a budget after
the merge, so long campaigns self-limit.

Observability (:mod:`repro.obs`): ``sweep --grid ... --trace out.json``
records spans from every layer — session, evaluate, compile, ISS, store,
including worker processes — into a Chrome trace-event file (open it at
``ui.perfetto.dev``); ``--progress`` renders a per-unit progress line
with an ETA on stderr (auto-disabled when stderr is not a TTY).
``profile`` runs a grid with tracing on and prints the per-phase
time/cache breakdown instead of the result table::

    python -m repro profile grid.json --jobs 4 --store .repro-store

    Span                  Count  Wall [ms]  CPU [ms]  Mean [ms]
    session.sweep             1     191.43     82.11    191.430
    sweep.unit_batch          6     180.02     71.40     30.003
    dta.compile              12     161.77     60.91     13.481
    iss.collect              12     120.45     52.00     10.038
    ...
    counters:
      sim.simulations = 12
      store.trace.hit = 24

The sweep service (:mod:`repro.serve`) turns the same grid files into a
multi-tenant HTTP service over one shared store: ``serve`` starts it,
``submit`` sends a grid and (with ``--wait``) streams progress until the
result frame comes back::

    python -m repro serve --store .repro-store --workers 2 \\
        --queue-limit 16 --tenant-budget 100M
    python -m repro submit --grid grid.json --tenant alice --wait \\
        --json result.json

Two clients submitting the same grid (any tenants) share one
computation — the server dedups by grid fingerprint — and a repeat
submission of a finished grid is served from the store's frame cache
with zero re-simulation (``"cached": true`` in the job snapshot).

Programs may be given as a bundled kernel name or a path to an assembly
file.

Design-point commands (``sta``, ``characterize``, ``evaluate``,
``sweep``, ``stream``, ``table2``; also ``run``) accept
``--pipeline-spec`` to select a registered pipeline microarchitecture
preset (:data:`repro.sim.spec.PIPELINE_VARIANTS`)::

    python -m repro evaluate crc32 --pipeline-spec shallow5

Non-default specs key their own compiled traces, LUTs and store
artifacts; grid files instead declare a ``pipeline_specs`` axis.

Every pipeline command is a thin call into :class:`repro.api.Session`
(the public facade); the CLI only parses arguments and formats output.
"""

import argparse
import json
import pathlib
import sys

from repro.sim.spec import PIPELINE_VARIANTS, get_pipeline_spec
from repro.timing.profiles import DesignVariant

# Everything else is imported inside the command that uses it: a
# process runs one command, and a warm ``repro sweep`` must not pay for
# the simulator, the characterisation flow or the ML trainer
# (``tests/test_import_discipline.py`` holds the line).


def _load_program(spec):
    """Resolve a program argument: bundled kernel name or .s/.asm path.

    Unknown kernels and missing files raise
    :class:`~repro.workloads.WorkloadError`, which ``main`` turns into a
    friendly message (listing the bundled kernels) and a nonzero exit.
    """
    from repro.workloads import resolve_program

    return resolve_program(spec)


def _build(args):
    """Design at the (variant, voltage, pipeline-spec) point named on
    the command line."""
    from repro.timing.design import build_design

    return build_design(
        DesignVariant(args.variant), voltage=args.voltage,
        pipeline_spec=getattr(args, "pipeline_spec", None),
    )


def _session(args, store=None, announce=True, **kwargs):
    """A Session at the operating point named on the command line.

    Prints the on-the-fly characterisation notice when neither a LUT
    file nor a store will provide the delay LUT.
    """
    from repro.api import Session
    from repro.dta.lut import DelayLUT

    lut = None
    if getattr(args, "lut", None):
        lut = DelayLUT.from_json(pathlib.Path(args.lut).read_text())
    elif store is None and announce:
        print("no --lut given: characterising on the fly ...",
              file=sys.stderr)
    return Session(
        variant=args.variant, voltage=args.voltage, lut=lut, store=store,
        pipeline_spec=getattr(args, "pipeline_spec", None),
        **kwargs,
    )


def _pipeline_spec_arg(value):
    """Argparse type for ``--pipeline-spec``: a registered preset name
    (see :data:`repro.sim.spec.PIPELINE_VARIANTS`)."""
    try:
        get_pipeline_spec(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"unknown pipeline spec {value!r} "
            f"(choose from {', '.join(sorted(PIPELINE_VARIANTS))})"
        ) from None
    return value


def _add_pipeline_spec_argument(parser):
    parser.add_argument(
        "--pipeline-spec", default=None, type=_pipeline_spec_arg,
        metavar="SPEC",
        help="pipeline microarchitecture preset "
             f"(choices: {', '.join(sorted(PIPELINE_VARIANTS))}; "
             "default: baseline6)",
    )


def _add_design_arguments(parser):
    parser.add_argument(
        "--variant", default="critical_range",
        choices=[variant.value for variant in DesignVariant],
        help="implementation variant (default: critical_range)",
    )
    parser.add_argument(
        "--voltage", type=float, default=0.70,
        help="supply voltage in volts (default: 0.70)",
    )
    _add_pipeline_spec_argument(parser)


def cmd_kernels(args):
    """List the bundled workload kernels (name, category, description)."""
    from repro.workloads import all_kernels

    print(f"{'name':14s} {'category':8s} description")
    for kernel in all_kernels():
        print(f"{kernel.name:14s} {kernel.category:8s} {kernel.description}")
    return 0


def cmd_asm(args):
    """Assemble a program and print its disassembly listing."""
    from repro.asm import disassemble_program

    program = _load_program(args.program)
    print(f"# {program.name}: {program.size_words} words, "
          f"entry {program.entry:#x}")
    print(disassemble_program(program))
    return 0


def cmd_run(args):
    """Run a program on the cycle-accurate pipeline of the selected
    spec, within the cycle budget ``evaluate`` and ``sweep`` use; print
    its instruction and cycle counts, CPI and registers."""
    from repro.flow.evaluate import DEFAULT_MAX_CYCLES
    from repro.sim import vector

    program = _load_program(args.program)
    run = vector.simulate(program, max_cycles=DEFAULT_MAX_CYCLES,
                          spec=args.pipeline_spec)
    regs = run.state.regs
    print(f"{program.name}: {run.num_retired} instructions, "
          f"{run.num_cycles} cycles "
          f"(CPI {run.num_cycles / run.num_retired:.3f})")
    print(f"r11 = {regs[11]} ({regs[11]:#010x})")
    if args.regs:
        for index in range(0, 32, 4):
            print("  " + "  ".join(
                f"r{r:<2d}={regs[r]:#010x}"
                for r in range(index, index + 4)
            ))
    return 0


def cmd_sta(args):
    """Static timing analysis of the design's synthetic netlist: the
    critical path, the per-stage wall profile and the clock bound."""
    from repro.timing.sta import run_sta
    from repro.timing.wall import wall_profile
    from repro.utils.units import ps_to_mhz

    design = _build(args)
    report = run_sta(design.netlist)
    print(report.summary())
    print(wall_profile(design.netlist).summary())
    print(f"clock bound: {report.critical_delay_ps:.0f} ps = "
          f"{ps_to_mhz(report.critical_delay_ps):.1f} MHz "
          f"@ {args.voltage:.2f} V")
    return 0


def cmd_characterize(args):
    """Characterise the design point and print or write the delay LUT
    (gate-sim substitute + DTA + extraction over the standard suite)."""
    session = _session(args, announce=False)
    print(f"characterising {session.design.name} ...", file=sys.stderr)
    result = session.characterize()
    text = result.lut.to_json()
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({result.total_cycles} cycles, "
              f"{len(result.lut.classes())} classes)")
    else:
        print(text)
    return 0


def cmd_evaluate(args):
    """Evaluate one program under one clock policy with ground-truth
    safety replay; exit 1 when any timing violation is recorded."""
    from repro.api import result_from_row
    from repro.ml.model import validate_policy_specs

    program = _load_program(args.program)   # fail fast on a bad spec
    validate_policy_specs([args.policy])    # ... and on a bad model file
    session = _session(args)
    frame = session.evaluate(
        [program],
        policies=[args.policy], generators=[args.generator],
        margins=[args.margin], check_safety=True,
    )
    result = result_from_row(frame.row(0))
    print(result.summary())
    if not result.is_safe:
        worst = max(result.violations, key=lambda v: v.overshoot_ps)
        print(f"WORST VIOLATION: cycle {worst.cycle} stage "
              f"{worst.stage.name} overshoot {worst.overshoot_ps:.1f} ps")
        return 1
    return 0


def _parse_store_budget(args):
    """``--store-max-size`` → bytes (or ``None``); raises ValueError
    on a malformed size or when no store is given to evict."""
    if not getattr(args, "store_max_size", None):
        return None
    if not args.store:
        raise ValueError("--store-max-size requires --store")
    return parse_size(args.store_max_size)


def cmd_sweep(args):
    """Batch-evaluate programs under many configurations: flag-driven
    axes by default, or the parallel grid runner with ``--grid``."""
    if args.grid:
        return _run_grid_sweep(args)
    from repro.ml.model import validate_policy_specs

    if (args.resume or args.jobs != 1 or args.json or args.trace
            or args.progress):
        print("--resume/--jobs/--json/--trace/--progress require a "
              "scenario grid (--grid)", file=sys.stderr)
        return 2

    if args.programs:
        programs = [_load_program(spec) for spec in args.programs]
    else:
        programs = None                    # the Fig. 8 benchmark suite
    validate_policy_specs(args.policy or [])   # before any simulation
    try:
        budget = _parse_store_budget(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = _session(
        args, store=args.store or None, store_budget_bytes=budget
    )
    return _run_flag_sweep(args, session, programs)


def _run_flag_sweep(args, session, programs):
    """Legacy flag-driven sweep (no scenario grid)."""
    from repro.flow.figures import sweep_frame_series, write_csv
    from repro.utils.tables import format_table

    frame = session.evaluate(
        programs,
        policies=args.policy or ["instruction", "ex-only", "two-class",
                                 "genie"],
        generators=args.generator or ["ideal"],
        margins=args.margin if args.margin else [0.0],
        check_safety=args.check_safety,
    )
    summary = frame.group_by("config", {
        "mhz": ("effective_frequency_mhz", "mean"),
        "speedup": ("speedup_percent", "mean"),
        "violations": ("num_violations", "sum"),
    })
    table_rows = [
        (row["config"], f"{row['mhz']:.0f}", f"{row['speedup']:+.1f}%",
         f"{int(row['violations'])}")
        for row in summary.iter_rows()
    ]
    num_programs = len(frame.distinct("program"))
    print(format_table(
        ["Configuration", "Avg. [MHz]", "Avg. speedup", "Violations"],
        table_rows,
        title=f"Sweep: {num_programs} programs x {len(summary)} configs "
              f"@ {args.voltage:.2f} V",
    ))
    if args.csv:
        header, series = sweep_frame_series(frame)
        write_csv(args.csv, header, series)
        print(f"wrote {args.csv} ({len(series)} rows)")
    unsafe = int(frame["num_violations"].sum())
    if session.store is not None and session.store_budget_bytes is not None:
        session.gc()
    return 1 if (args.check_safety and unsafe) else 0


def _write_trace(path, session, label):
    """Export the session's telemetry as a Chrome trace-event file."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import write_chrome_trace

    spans = session.telemetry.snapshot()
    write_chrome_trace(path, spans, counters=obs_metrics.gather(),
                       label=label)
    print(f"wrote {path} ({len(spans)} spans)")


def cmd_profile(args):
    """Run a scenario grid with tracing on; print where the time went.

    The per-span table aggregates the merged timeline (parent process
    plus any sweep workers); counters come from the unified
    :mod:`repro.obs.metrics` registry, so cache hits and simulation
    counts reflect the whole run even under ``--jobs``.
    """
    from repro.api import Session
    from repro.lab.scenario import ScenarioError, ScenarioGrid
    from repro.ml.model import validate_policy_specs
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import summary_rows
    from repro.utils.tables import format_table

    try:
        grid = ScenarioGrid.from_file(args.grid)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    validate_policy_specs(grid.policies)
    session = Session(
        store=args.store or None, jobs=args.jobs, telemetry=True,
    )
    result = session.sweep(grid, resume=args.resume)
    spans = session.telemetry.snapshot()
    table_rows = [
        (row["span"], f"{row['count']}", f"{row['wall_ms']:.2f}",
         f"{row['cpu_ms']:.2f}", f"{row['mean_ms']:.3f}")
        for row in summary_rows(spans)
    ]
    print(format_table(
        ["Span", "Count", "Wall [ms]", "CPU [ms]", "Mean [ms]"],
        table_rows,
        title=(f"Profile '{grid.name}': {result.units_total} units in "
               f"{result.seconds:.2f} s, jobs={result.jobs}"),
    ))
    counters = obs_metrics.gather()
    if counters:
        print("counters:")
        for name in sorted(counters):
            print(f"  {name} = {counters[name]}")
    if result.store_stats is not None:
        print(f"store: {result.store_stats.summary()}")
    if args.trace:
        _write_trace(args.trace, session, grid.name)
    return 0


def _run_grid_sweep(args):
    """Scenario-grid mode: the parallel runner + artifact store."""
    from repro.api import Session
    from repro.lab.scenario import ScenarioError, ScenarioGrid
    from repro.ml.model import validate_policy_specs
    from repro.utils.tables import format_table

    if (args.programs or args.policy or args.generator or args.margin
            or args.check_safety or args.lut
            or args.variant != "critical_range" or args.voltage != 0.70
            or args.pipeline_spec is not None):
        print("--grid mode takes every axis from the grid file; drop the "
              "positional programs and the --policy/--generator/--margin/"
              "--check-safety/--lut/--variant/--voltage/--pipeline-spec "
              "flags", file=sys.stderr)
        return 2
    try:
        grid = ScenarioGrid.from_file(args.grid)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    validate_policy_specs(grid.policies)   # before any simulation
    try:
        budget = _parse_store_budget(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    session = Session(
        store=args.store or None, jobs=args.jobs,
        store_budget_bytes=budget,
        telemetry=bool(args.trace),
    )
    unit_progress = None
    on_unit = None
    per_unit_lines = lambda line: print(line, file=sys.stderr)  # noqa: E731
    if args.progress:
        from repro.obs.progress import UnitProgress

        unit_progress = UnitProgress(0, stream=sys.stderr,
                                     label=f"sweep {grid.name}")
        on_unit = unit_progress.update
        if unit_progress.enabled:
            per_unit_lines = None   # one line, not one per unit
    try:
        result = session.sweep(
            grid,
            resume=args.resume,
            progress=per_unit_lines,
            on_unit=on_unit,
        )
    finally:
        if unit_progress is not None:
            unit_progress.finish()
    if args.trace:
        _write_trace(args.trace, session, grid.name)

    summary = result.frame.group_by(["design_point", "config"], {
        "mhz": ("effective_frequency_mhz", "mean"),
        "speedup": ("speedup_percent", "mean"),
        "violations": ("num_violations", "sum"),
    })
    table_rows = [
        (row["design_point"], row["config"], f"{row['mhz']:.0f}",
         f"{row['speedup']:+.1f}%", f"{int(row['violations'])}")
        for row in summary.iter_rows()
    ]
    print(format_table(
        ["Design point", "Configuration", "Avg. [MHz]", "Avg. speedup",
         "Violations"],
        table_rows,
        title=(
            f"Grid '{grid.name}': {result.units_total} units "
            f"({result.units_resumed} resumed) x "
            f"{len(grid.config_specs())} configs "
            f"in {result.seconds:.2f} s, jobs={result.jobs}"
        ),
    ))
    if result.store_stats is not None:
        print(f"store: {result.store_stats.summary()}; "
              f"simulations run: {result.simulations}")
    if args.json:
        result.write_json(args.json)
        print(f"wrote {args.json}")
    if args.csv:
        result.write_csv(args.csv)
        print(f"wrote {args.csv} ({len(result.frame)} rows)")
    return 1 if (grid.check_safety and result.num_violations) else 0


def cmd_table2(args):
    """Render the characterised delay LUT in the paper's Table II
    layout (per-class, per-stage-group delays)."""
    session = _session(args)
    print(session.lut.render())
    return 0


def cmd_train(args):
    """Train a learned clock policy on a scenario grid (repro.ml).

    Writes the model artifact to ``--out``, content-addresses it into
    the store when one is given, then (unless ``--no-eval``) deploys it
    through :class:`Session` on the full benchmark suite: the run fails
    (exit 1) if the learned policy violates timing under genie safety
    replay or does not beat the static baseline's mean effective
    frequency.  ``--report`` writes the train+eval metrics as JSON
    (the CI ``ml-smoke`` artifact, ``BENCH_train.json``).
    """
    from repro.api import Session
    from repro.lab.scenario import ScenarioError, ScenarioGrid
    from repro.ml.train import TrainerConfig, train_policy
    from repro.utils.tables import format_table

    try:
        grid = ScenarioGrid.from_file(args.grid)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        config = TrainerConfig(
            model=args.model, seed=args.seed, max_depth=args.max_depth,
            min_samples_leaf=args.min_samples_leaf, window=args.window,
            calibration_margin_percent=args.margin,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = args.store or None
    outcome = train_policy(
        grid, config, store=store, jobs=args.jobs,
        progress=lambda line: print(line, file=sys.stderr),
    )
    model = outcome.model
    out = args.out
    model.save(out)
    print(f"wrote {out} ({model.kind}, {model.num_leaves} leaves, "
          f"{outcome.report['train_rows']} training rows, seed "
          f"{config.seed})")
    from repro.obs.host import host_metadata

    report = {"train": outcome.report, "host": host_metadata()}
    if store:
        from repro.lab.store import ArtifactStore

        name = f"train:{grid.fingerprint()}:{config.seed}:{config.model}"
        ArtifactStore(store).save_model(name, model)
        report["store_model"] = name
        print(f"stored model artifact {name!r} in {store}")

    exit_code = 0
    if not args.no_eval:
        point = grid.design_points()[0]
        session = Session(
            variant=point.variant, voltage=point.voltage, store=store,
            jobs=args.jobs,
        )
        spec = f"learned:{out}"
        frame = session.evaluate(
            None, policies=[spec, "static"], check_safety=True
        )
        summary = frame.group_by("policy", {
            "mhz": ("effective_frequency_mhz", "mean"),
            "speedup": ("speedup_percent", "mean"),
            "speedup_p95": ("speedup_percent", "p95"),
            "violations": ("num_violations", "sum"),
        })
        rows = {row["policy"]: row for row in summary.iter_rows()}
        learned, static = rows[spec], rows["static"]
        print(format_table(
            ["Policy", "Avg. [MHz]", "Avg. speedup", "p95 speedup",
             "Violations"],
            [
                (policy, f"{row['mhz']:.0f}", f"{row['speedup']:+.1f}%",
                 f"{row['speedup_p95']:+.1f}%", f"{int(row['violations'])}")
                for policy, row in (("learned", learned),
                                    ("static", static))
            ],
            title=(f"Learned vs static @ {point.label}: "
                   f"{len(frame.distinct('program'))} programs"),
        ))
        safe = learned["violations"] == 0
        faster = learned["mhz"] > static["mhz"]
        report["eval"] = {
            "design_point": point.label,
            "programs": len(frame.distinct("program")),
            "learned": learned,
            "static": static,
            "safe": safe,
            "faster_than_static": faster,
        }
        if not safe:
            print(f"FAIL: learned policy caused "
                  f"{int(learned['violations'])} timing violations",
                  file=sys.stderr)
            exit_code = 1
        if not faster:
            print("FAIL: learned policy does not beat the static "
                  "baseline's mean effective frequency", file=sys.stderr)
            exit_code = 1
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.report}")
    return exit_code


#: Registry policy names; ``learned:<model.npz>`` deploys a trained one.
_POLICY_CHOICES = ("instruction", "ex-only", "two-class", "genie",
                   "static")


def _policy_arg(value):
    """Argparse type for ``--policy``: a registry name or a
    ``learned:<model.npz>`` spec (the file itself is validated later,
    via :func:`repro.ml.model.validate_policy_specs`)."""
    from repro.ml.model import is_learned_spec

    if value in _POLICY_CHOICES or is_learned_spec(value):
        return value
    raise argparse.ArgumentTypeError(
        f"invalid policy {value!r} "
        f"(choose from {', '.join(_POLICY_CHOICES)} "
        "or learned:<model.npz>)"
    )


_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size(text):
    """Parse a size budget like ``500M``, ``1.5G``, ``4096`` (bytes)."""
    text = text.strip().lower().removesuffix("b")
    factor = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid size {text!r}") from None
    if value < 0:
        raise ValueError("size budget cannot be negative")
    return int(value * factor)


def cmd_store_gc(args):
    """LRU store eviction: keep the most recently used artifacts within
    the size budget (artifact loads refresh their mtime)."""
    from repro.api import Session

    try:
        budget = parse_size(args.max_size)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    session = Session(store=args.store, store_budget_bytes=budget)
    store = session.store
    if not store.root.is_dir():
        print(f"error: store directory {store.root} does not exist",
              file=sys.stderr)
        return 2
    result = session.gc(dry_run=args.dry_run)
    prefix = "would evict" if args.dry_run else "evicted"
    print(f"{store.root}: {result.scanned_files} artifacts scanned; "
          f"{prefix} {result.removed_files} "
          f"({result.removed_bytes} B), kept {result.kept_files} "
          f"({result.kept_bytes} B) within {budget} B")
    return 0


def cmd_serve(args):
    """Start the multi-tenant sweep service (:mod:`repro.serve`).

    Serves sweep/evaluate/train jobs over HTTP on one shared artifact
    store; identical grids are deduplicated by fingerprint and finished
    results are cached as frames.  Runs until SIGINT/SIGTERM or a
    ``POST /v1/shutdown``.
    """
    from repro.serve import ServeConfig, SweepServer

    try:
        tenant_budget = (parse_size(args.tenant_budget)
                         if args.tenant_budget else None)
        store_budget = (parse_size(args.store_max_size)
                        if args.store_max_size else None)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    config = ServeConfig(
        store_root=args.store,
        host=args.host,
        port=args.port,
        workers=args.workers,
        sweep_jobs=args.jobs,
        queue_limit=args.queue_limit,
        tenant_budget_bytes=tenant_budget,
        store_budget_bytes=store_budget,
        telemetry=args.telemetry,
    )
    return SweepServer(config).run()


def cmd_submit(args):
    """Submit a scenario grid to a running sweep service.

    Prints the job snapshot; with ``--wait`` streams progress events on
    stderr until the job finishes, then writes/prints the result frame.
    A cached or deduplicated submission is visible in the snapshot
    (``"cached": true`` / ``"deduped": true``).
    """
    from repro.lab.scenario import ScenarioError, ScenarioGrid
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    try:
        grid = ScenarioGrid.from_file(args.grid)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    client = ServeClient(args.url, timeout=args.timeout)
    try:
        job = client.submit(grid, kind=args.kind, tenant=args.tenant)
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1 if error.status == 429 else 2
    except OSError as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 2
    flags = []
    if job.get("cached"):
        flags.append("cached")
    if job.get("deduped"):
        flags.append("deduped")
    note = f" ({', '.join(flags)})" if flags else ""
    print(f"job {job['id']}: {job['state']}{note} "
          f"[grid {job['grid']!r}, tenant {job['tenant']!r}]")
    if not args.wait:
        return 0
    try:
        if job["state"] not in ("done", "failed"):
            for event in client.events(job["id"]):
                if event.get("event") == "progress":
                    print(f"  {event['done']}/{event['total']} units",
                          file=sys.stderr)
        snapshot = client.wait(job["id"], timeout=args.timeout)
        if snapshot["state"] == "failed":
            print(f"error: job failed: {snapshot['error']}",
                  file=sys.stderr)
            return 1
        body = client.result_bytes(job["id"])
    except (ServeError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        pathlib.Path(args.json).write_bytes(body)
        print(f"wrote {args.json} ({len(body)} bytes)")
    else:
        sys.stdout.write(body.decode())
    return 0


def _print_window(update, file=sys.stderr):
    """One rolling-result line per window (local streaming mode)."""
    rows = update.frame.to_rows()
    best = max(rows, key=lambda row: row["effective_frequency_mhz"])
    violations = sum(int(row["num_violations"]) for row in rows)
    print(f"  {update.program} window {update.index} "
          f"[{update.start_cycle}..{update.start_cycle + update.num_cycles}) "
          f"stream={update.stream_cycles} cyc: "
          f"best {best['config']} {best['effective_frequency_mhz']:.0f} MHz, "
          f"{violations} violations", file=file)


def cmd_stream(args):
    """Streaming (windowed) evaluation — local or against the service.

    Local mode drives a :class:`repro.stream.StreamingSession` over the
    named programs (or the seeded random program stream), printing one
    rolling-result line per window; remote mode (``--url``) submits a
    ``stream`` job and follows its per-window events off ``/events``.
    An unbounded local stream runs until Ctrl-C.
    """
    if args.url:
        return _remote_stream(args)
    from repro.ml.model import validate_policy_specs
    from repro.stream import StreamingSession, kernel_source, random_source

    validate_policy_specs(args.policy or [])
    if args.programs:
        if args.source == "randomgen":
            print("error: give programs or --source randomgen, not both",
                  file=sys.stderr)
            return 2
        source = kernel_source(args.programs)
        unbounded = False
    elif args.source == "randomgen":
        source = random_source(
            seed=args.seed, length=args.length, repeats=args.repeats,
            unique=args.unique, count=args.count,
        )
        unbounded = args.count is None
    else:
        print("error: name programs to stream or pass --source randomgen",
              file=sys.stderr)
        return 2
    session = _session(args, store=args.store or None)
    streaming = StreamingSession(
        session, window_cycles=args.window_cycles,
        max_windows=args.max_windows,
    )
    if unbounded:
        print("unbounded stream (no --count): Ctrl-C to stop",
              file=sys.stderr)
    on_window = None if args.quiet else _print_window
    try:
        frame = streaming.evaluate(
            source,
            policies=args.policy or ["instruction"],
            generators=args.generator or ["ideal"],
            margins=args.margin if args.margin else [0.0],
            check_safety=True,
            on_window=on_window,
        )
    except KeyboardInterrupt:
        print("stream interrupted", file=sys.stderr)
        return 130
    if args.json:
        pathlib.Path(args.json).write_text(frame.to_json())
        print(f"wrote {args.json} ({len(frame)} rows)")
        return 0
    from repro.utils.tables import format_table

    summary = frame.group_by("config", {
        "mhz": ("effective_frequency_mhz", "mean"),
        "violations": ("num_violations", "sum"),
    })
    table_rows = [
        (row["config"], f"{row['mhz']:.0f}", f"{int(row['violations'])}")
        for row in summary.iter_rows()
    ]
    num_programs = len(frame.distinct("program"))
    print(format_table(
        ["Configuration", "Avg. [MHz]", "Violations"],
        table_rows,
        title=f"Stream: {num_programs} programs x {len(summary)} configs "
              f"@ {args.voltage:.2f} V, window {args.window_cycles} cyc",
    ))
    return 0


def _remote_stream(args):
    """``repro stream --url``: submit a ``stream`` job and follow its
    rolling window events over the service's ndjson channel."""
    from repro.lab.scenario import ScenarioError, ScenarioGrid
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    if not args.grid:
        print("error: --url needs --grid (the config axes of the stream "
              "job)", file=sys.stderr)
        return 2
    try:
        grid = ScenarioGrid.from_file(args.grid)
    except ScenarioError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    options = {
        "window_cycles": args.window_cycles,
        "max_windows": args.max_windows,
        "source": args.source,
        "seed": args.seed,
        "count": args.count,
        "length": args.length,
        "repeats": args.repeats,
        "unique": args.unique,
    }
    client = ServeClient(args.url, timeout=args.timeout)
    try:
        job = client.submit(grid, kind="stream", tenant=args.tenant,
                            stream=options)
    except ServeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1 if error.status == 429 else 2
    except OSError as error:
        print(f"error: cannot reach {args.url}: {error}", file=sys.stderr)
        return 2
    note = " (cached)" if job.get("cached") else ""
    print(f"job {job['id']}: {job['state']}{note} "
          f"[grid {job['grid']!r}, tenant {job['tenant']!r}]")
    try:
        if job["state"] not in ("done", "failed"):
            for event in client.events(job["id"]):
                if event.get("event") == "window" and not args.quiet:
                    best = max(
                        event["rows"],
                        key=lambda row: row["effective_frequency_mhz"],
                    )
                    violations = sum(int(row["num_violations"])
                                     for row in event["rows"])
                    print(f"  {event['design_point']} {event['program']} "
                          f"window {event['window']}: best "
                          f"{best['config']} "
                          f"{best['effective_frequency_mhz']:.0f} MHz, "
                          f"{violations} violations", file=sys.stderr)
        snapshot = client.wait(job["id"], timeout=args.timeout)
        if snapshot["state"] == "failed":
            print(f"error: job failed: {snapshot['error']}",
                  file=sys.stderr)
            return 1
        body = client.result_bytes(job["id"])
    except (ServeError, TimeoutError, OSError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.json:
        pathlib.Path(args.json).write_bytes(body)
        print(f"wrote {args.json} ({len(body)} bytes)")
    else:
        sys.stdout.write(body.decode())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instruction-based dynamic clock adjustment "
                    "(DATE 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    sub = subparsers.add_parser("kernels", help="list bundled workloads")
    sub.set_defaults(func=cmd_kernels)

    sub = subparsers.add_parser("asm", help="assemble and list a program")
    sub.add_argument("program", help="kernel name or assembly file")
    sub.set_defaults(func=cmd_asm)

    sub = subparsers.add_parser("run", help="run a program on the "
                                            "cycle-accurate pipeline")
    sub.add_argument("program")
    sub.add_argument("--regs", action="store_true",
                     help="dump the full register file")
    _add_pipeline_spec_argument(sub)
    sub.set_defaults(func=cmd_run)

    sub = subparsers.add_parser("sta", help="static timing analysis")
    _add_design_arguments(sub)
    sub.set_defaults(func=cmd_sta)

    sub = subparsers.add_parser("characterize",
                                help="extract the delay LUT")
    _add_design_arguments(sub)
    sub.add_argument("-o", "--output", help="write the LUT as JSON")
    sub.set_defaults(func=cmd_characterize)

    sub = subparsers.add_parser("evaluate",
                                help="evaluate a program under a policy")
    sub.add_argument("program")
    _add_design_arguments(sub)
    sub.add_argument("--policy", default="instruction",
                     type=_policy_arg, metavar="POLICY",
                     help="policy name or learned:<model.npz> "
                          f"(choices: {', '.join(_POLICY_CHOICES)})")
    sub.add_argument("--generator", default="ideal",
                     choices=["ideal", "ring", "pll"])
    sub.add_argument("--margin", type=float, default=0.0,
                     help="safety margin in percent")
    sub.add_argument("--lut", help="reuse a LUT JSON file")
    sub.set_defaults(func=cmd_evaluate)

    sub = subparsers.add_parser(
        "sweep",
        help="batch-evaluate programs under many configurations",
    )
    sub.add_argument("programs", nargs="*",
                     help="kernel names or assembly files "
                          "(default: the Fig. 8 benchmark suite)")
    _add_design_arguments(sub)
    sub.add_argument("--policy", action="append",
                     type=_policy_arg, metavar="POLICY",
                     help="policy to sweep: a registry name or "
                          "learned:<model.npz> (repeatable; default: "
                          "all non-static policies)")
    sub.add_argument("--generator", action="append",
                     choices=["ideal", "ring", "pll"],
                     help="generator to sweep (repeatable; default: ideal)")
    sub.add_argument("--margin", action="append", type=float,
                     help="safety margin in percent (repeatable; default: 0)")
    sub.add_argument("--check-safety", action="store_true",
                     help="replay ground-truth delays and count violations")
    sub.add_argument("--csv", help="write the per-benchmark series as CSV")
    sub.add_argument("--lut", help="reuse a LUT JSON file")
    sub.add_argument("--grid",
                     help="scenario grid file (.json/.toml); runs the "
                          "parallel sweep runner instead of the one-shot "
                          "policy sweep")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for --grid mode (default: 1)")
    sub.add_argument("--store",
                     help="artifact-store directory: compiled traces and "
                          "LUTs are cached here across runs")
    sub.add_argument("--resume", action="store_true",
                     help="reuse completed units from the run manifest of "
                          "an interrupted --grid run")
    sub.add_argument("--json",
                     help="write the merged grid results as JSON")
    sub.add_argument("--store-max-size",
                     help="store size budget (e.g. 500M): LRU-evict the "
                          "artifact store down to it after the run")
    sub.add_argument("--trace",
                     help="write a Chrome trace-event JSON of the run "
                          "(--grid mode; open in ui.perfetto.dev)")
    sub.add_argument("--progress", action="store_true",
                     help="per-unit progress line with ETA on stderr "
                          "(--grid mode; auto-disabled when not a TTY)")
    sub.set_defaults(func=cmd_sweep)

    sub = subparsers.add_parser(
        "profile",
        help="run a scenario grid with tracing and print the per-phase "
             "time/cache breakdown",
    )
    sub.add_argument("grid", help="scenario grid file (.json/.toml)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes (default: 1)")
    sub.add_argument("--store",
                     help="artifact-store directory (cache effects show "
                          "up in the counters)")
    sub.add_argument("--resume", action="store_true",
                     help="reuse completed units from the run manifest")
    sub.add_argument("--trace",
                     help="also write the Chrome trace-event JSON")
    sub.set_defaults(func=cmd_profile)

    sub = subparsers.add_parser(
        "train",
        help="train a learned clock policy on a scenario grid (ML-DFS)",
    )
    sub.add_argument("--grid", required=True,
                     help="scenario grid file (.json/.toml): its design "
                          "points x workloads are the training corpus")
    sub.add_argument("-o", "--out", default="model.npz",
                     help="model artifact path (default: model.npz); "
                          "deploy it as --policy learned:<path>")
    sub.add_argument("--store",
                     help="artifact-store directory (traces/LUTs cached, "
                          "model content-addressed into it)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="worker processes for the training sweep")
    sub.add_argument("--seed", type=int, default=0,
                     help="training seed, recorded in the artifact "
                          "(default: 0)")
    sub.add_argument("--model", default="tree",
                     choices=["tree", "logistic"],
                     help="predictor kind (default: tree)")
    sub.add_argument("--max-depth", type=int, default=12)
    sub.add_argument("--min-samples-leaf", type=int, default=32)
    sub.add_argument("--window", type=int, default=8,
                     help="recent-excitation window in cycles")
    sub.add_argument("--margin", type=float, default=0.0,
                     help="calibration safety margin in percent")
    sub.add_argument("--report",
                     help="write train+eval metrics as JSON "
                          "(e.g. BENCH_train.json)")
    sub.add_argument("--no-eval", action="store_true",
                     help="skip the learned-vs-static self-evaluation")
    sub.set_defaults(func=cmd_train)

    sub = subparsers.add_parser(
        "serve",
        help="start the multi-tenant sweep service over a shared store",
    )
    sub.add_argument("--store", required=True,
                     help="shared artifact-store directory (the service's "
                          "cache and dedup fabric)")
    sub.add_argument("--host", default="127.0.0.1",
                     help="bind address (default: 127.0.0.1)")
    sub.add_argument("--port", type=int, default=8787,
                     help="bind port; 0 picks a free one (default: 8787)")
    sub.add_argument("--workers", type=int, default=2,
                     help="concurrent job worker processes (default: 2)")
    sub.add_argument("--jobs", type=int, default=1,
                     help="shard workers inside each job's sweep "
                          "(default: 1)")
    sub.add_argument("--queue-limit", type=int, default=16,
                     help="active-job bound; submissions past it get "
                          "HTTP 429 (default: 16)")
    sub.add_argument("--tenant-budget",
                     help="per-tenant cached-frame budget (e.g. 100M): "
                          "LRU-evict a tenant's results past it")
    sub.add_argument("--store-max-size",
                     help="whole-store size budget (e.g. 2G), LRU-gc'd "
                          "after every completed job")
    sub.add_argument("--telemetry", action="store_true",
                     help="record serve.job spans (plus worker spans) on "
                          "the server tracer")
    sub.set_defaults(func=cmd_serve)

    sub = subparsers.add_parser(
        "submit",
        help="submit a scenario grid to a running sweep service",
    )
    sub.add_argument("--grid", required=True,
                     help="scenario grid file (.json/.toml)")
    sub.add_argument("--url", default="http://127.0.0.1:8787",
                     help="service URL (default: http://127.0.0.1:8787)")
    sub.add_argument("--kind", default="sweep",
                     choices=["sweep", "evaluate", "train", "stream"],
                     help="job kind (default: sweep)")
    sub.add_argument("--tenant", default="anonymous",
                     help="tenant name for budget accounting")
    sub.add_argument("--wait", action="store_true",
                     help="stream progress and fetch the result frame")
    sub.add_argument("--timeout", type=float, default=600.0,
                     help="per-request socket timeout and --wait "
                          "deadline in seconds (default: 600)")
    sub.add_argument("--json",
                     help="with --wait: write the result frame JSON here "
                          "instead of stdout")
    sub.set_defaults(func=cmd_submit)

    sub = subparsers.add_parser(
        "stream",
        help="streaming (windowed) evaluation — local or via the service",
    )
    sub.add_argument("programs", nargs="*",
                     help="kernel names or .s files to stream in order "
                          "(default: --source randomgen)")
    _add_design_arguments(sub)
    sub.add_argument("--policy", action="append",
                     help="clock policy (repeatable; also "
                          "'learned:<model.npz>'; default: instruction)")
    sub.add_argument("--generator", action="append",
                     help="clock generator model (repeatable; "
                          "default: ideal)")
    sub.add_argument("--margin", action="append", type=float,
                     help="safety margin in percent (repeatable; "
                          "default: 0)")
    sub.add_argument("--window-cycles", type=int, default=1024,
                     help="cycles per trace window (default: 1024)")
    sub.add_argument("--max-windows", type=int, default=8,
                     help="windows kept in memory (default: 8)")
    sub.add_argument("--source", default="workloads",
                     choices=["workloads", "randomgen"],
                     help="program source when no programs are named "
                          "(default: workloads)")
    sub.add_argument("--seed", type=int, default=1,
                     help="randomgen stream seed (default: 1)")
    sub.add_argument("--count", type=int, default=None,
                     help="stop the randomgen stream after N programs "
                          "(default: unbounded locally; required "
                          "remotely)")
    sub.add_argument("--length", type=int, default=1200,
                     help="randomgen program length (default: 1200)")
    sub.add_argument("--repeats", type=int, default=3,
                     help="randomgen loop repeats (default: 3)")
    sub.add_argument("--unique", type=int, default=None,
                     help="loop over N unique randomgen programs")
    sub.add_argument("--store",
                     help="artifact-store directory (reuses compiled "
                          "traces and LUTs)")
    sub.add_argument("--lut", help="reuse a LUT JSON file")
    sub.add_argument("--quiet", action="store_true",
                     help="suppress per-window rolling lines")
    sub.add_argument("--json",
                     help="write the final result frame JSON here")
    sub.add_argument("--url",
                     help="submit to a running sweep service instead of "
                          "evaluating locally (needs --grid)")
    sub.add_argument("--grid",
                     help="scenario grid file for --url mode (config "
                          "axes of the stream job)")
    sub.add_argument("--tenant", default="anonymous",
                     help="tenant name for --url mode")
    sub.add_argument("--timeout", type=float, default=300.0,
                     help="per-request socket timeout and wait deadline "
                          "for --url mode (default: 300)")
    sub.set_defaults(func=cmd_stream)

    sub = subparsers.add_parser("table2", help="render a LUT (Table II)")
    _add_design_arguments(sub)
    sub.add_argument("--lut", help="LUT JSON file")
    sub.set_defaults(func=cmd_table2)

    sub = subparsers.add_parser(
        "store", help="artifact-store maintenance"
    )
    store_subparsers = sub.add_subparsers(dest="store_command",
                                          required=True)
    gc = store_subparsers.add_parser(
        "gc",
        help="evict least-recently-used artifacts down to a size budget",
    )
    gc.add_argument("--store", required=True,
                    help="artifact-store directory")
    gc.add_argument("--max-size", required=True,
                    help="size budget, e.g. 500M, 2G, 4096 (bytes)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be evicted without deleting")
    gc.set_defaults(func=cmd_store_gc)

    return parser


#: ``(module, exception)`` pairs ``main`` reports as one ``error:``
#: line with exit code 2: an unknown program spec, and a missing or
#: corrupt learned-policy model (which fails fast, before simulation,
#: naming the offending path).
_INPUT_ERRORS = (
    ("repro.workloads", "WorkloadError"),
    ("repro.ml.model", "ModelError"),
    ("repro.sim.predecode", "SimulationError"),
)


def _input_errors():
    """The :data:`_INPUT_ERRORS` types whose module is loaded.  An
    exception can only come from a module that ran, so looking them up
    here, when one propagates, never imports a module for them."""
    return tuple(
        getattr(sys.modules[module], name)
        for module, name in _INPUT_ERRORS if module in sys.modules
    )


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _input_errors() as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
