"""``repro profile``: run a scenario grid traced, print where time went."""

from repro.cli import validate_policies, write_trace


def add_arguments(parser):
    parser.add_argument("grid", help="scenario grid file (.json/.toml)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default: 1)")
    parser.add_argument("--store",
                        help="artifact-store directory (cache effects "
                             "show up in the counters)")
    parser.add_argument("--resume", action="store_true",
                        help="reuse completed units from the run manifest")
    parser.add_argument("--trace",
                        help="also write the Chrome trace-event JSON")


def run(args):
    """Run a scenario grid with tracing on; print where the time went.

    The per-span table aggregates the merged timeline (parent process
    plus any sweep workers); counters come from the unified
    :mod:`repro.obs.metrics` registry, so cache hits and simulation
    counts reflect the whole run even under ``--jobs``.
    """
    from repro.api import Session
    from repro.lab.scenario import ScenarioGrid
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import summary_rows
    from repro.utils.tables import format_table

    grid = ScenarioGrid.from_file(args.grid)
    validate_policies(grid.policies)
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
        write_trace(args.trace, session, grid.name)
    return 0
