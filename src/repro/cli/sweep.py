"""``repro sweep``: batch evaluation under many configurations.

Flag-driven axes by default; ``--grid`` runs a scenario grid through
the sweep runner and the artifact store.
"""

import sys

from repro.cli import (
    add_design_arguments,
    load_program,
    parse_store_budget,
    policy_arg,
    session,
    validate_policies,
    write_trace,
)


def add_arguments(parser):
    parser.add_argument("programs", nargs="*",
                        help="kernel names or assembly files "
                             "(default: the Fig. 8 benchmark suite)")
    add_design_arguments(parser)
    parser.add_argument("--policy", action="append",
                        type=policy_arg, metavar="POLICY",
                        help="policy to sweep: a registry name or "
                             "learned:<model.npz> (repeatable; default: "
                             "all non-static policies)")
    parser.add_argument("--generator", action="append",
                        choices=["ideal", "ring", "pll"],
                        help="generator to sweep (repeatable; default: "
                             "ideal)")
    parser.add_argument("--margin", action="append", type=float,
                        help="safety margin in percent (repeatable; "
                             "default: 0)")
    parser.add_argument("--check-safety", action="store_true",
                        help="replay ground-truth delays and count "
                             "violations")
    parser.add_argument("--csv",
                        help="write the per-benchmark series as CSV")
    parser.add_argument("--lut", help="reuse a LUT JSON file")
    parser.add_argument("--grid",
                        help="scenario grid file (.json/.toml); runs the "
                             "parallel sweep runner instead of the "
                             "one-shot policy sweep")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for --grid mode "
                             "(default: 1)")
    parser.add_argument("--store",
                        help="artifact-store directory: compiled traces "
                             "and LUTs are cached here across runs")
    parser.add_argument("--resume", action="store_true",
                        help="reuse completed units from the run manifest "
                             "of an interrupted --grid run")
    parser.add_argument("--json",
                        help="write the merged grid results as JSON")
    parser.add_argument("--store-max-size",
                        help="store size budget (e.g. 500M): LRU-evict "
                             "the artifact store down to it after the run")
    parser.add_argument("--trace",
                        help="write a Chrome trace-event JSON of the run "
                             "(--grid mode; open in ui.perfetto.dev)")
    parser.add_argument("--progress", action="store_true",
                        help="per-unit progress line with ETA on stderr "
                             "(--grid mode; auto-disabled when not a TTY)")


def run(args):
    """Batch-evaluate programs under many configurations: flag-driven
    axes by default, or the parallel grid runner with ``--grid``."""
    if args.grid:
        return _run_grid_sweep(args)
    if (args.resume or args.jobs != 1 or args.json or args.trace
            or args.progress):
        print("--resume/--jobs/--json/--trace/--progress require a "
              "scenario grid (--grid)", file=sys.stderr)
        return 2

    if args.programs:
        programs = [load_program(spec) for spec in args.programs]
    else:
        programs = None                    # the Fig. 8 benchmark suite
    validate_policies(args.policy or [])   # before any simulation
    try:
        budget = parse_store_budget(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    current = session(
        args, store=args.store or None, store_budget_bytes=budget
    )
    return _run_flag_sweep(args, current, programs)


def _run_flag_sweep(args, current, programs):
    """Legacy flag-driven sweep (no scenario grid)."""
    from repro.flow.figures import sweep_frame_series, write_csv
    from repro.utils.tables import format_table

    frame = current.evaluate(
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
    if current.store is not None and current.store_budget_bytes is not None:
        current.gc()
    return 1 if (args.check_safety and unsafe) else 0


def _run_grid_sweep(args):
    """Scenario-grid mode: the parallel runner + artifact store."""
    from repro.api import Session
    from repro.lab.scenario import ScenarioGrid
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
    grid = ScenarioGrid.from_file(args.grid)
    validate_policies(grid.policies)   # before any simulation
    try:
        budget = parse_store_budget(args)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    current = Session(
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
        result = current.sweep(
            grid,
            resume=args.resume,
            progress=per_unit_lines,
            on_unit=on_unit,
        )
    finally:
        if unit_progress is not None:
            unit_progress.finish()
    if args.trace:
        write_trace(args.trace, current, grid.name)

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
