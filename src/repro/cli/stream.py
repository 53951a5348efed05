"""``repro stream``: windowed evaluation, local or via the service."""

import pathlib
import sys

from repro.cli import add_design_arguments, session, validate_policies


def add_arguments(parser):
    parser.add_argument("programs", nargs="*",
                        help="kernel names or .s files to stream in order "
                             "(default: --source randomgen)")
    add_design_arguments(parser)
    parser.add_argument("--policy", action="append",
                        help="clock policy (repeatable; also "
                             "'learned:<model.npz>'; default: instruction)")
    parser.add_argument("--generator", action="append",
                        help="clock generator model (repeatable; "
                             "default: ideal)")
    parser.add_argument("--margin", action="append", type=float,
                        help="safety margin in percent (repeatable; "
                             "default: 0)")
    parser.add_argument("--window-cycles", type=int, default=1024,
                        help="cycles per trace window (default: 1024)")
    parser.add_argument("--max-windows", type=int, default=8,
                        help="windows kept in memory (default: 8)")
    parser.add_argument("--source", default="workloads",
                        choices=["workloads", "randomgen"],
                        help="program source when no programs are named "
                             "(default: workloads)")
    parser.add_argument("--seed", type=int, default=1,
                        help="randomgen stream seed (default: 1)")
    parser.add_argument("--count", type=int, default=None,
                        help="stop the randomgen stream after N programs "
                             "(default: unbounded locally; required "
                             "remotely)")
    parser.add_argument("--length", type=int, default=1200,
                        help="randomgen program length (default: 1200)")
    parser.add_argument("--repeats", type=int, default=3,
                        help="randomgen loop repeats (default: 3)")
    parser.add_argument("--unique", type=int, default=None,
                        help="loop over N unique randomgen programs")
    parser.add_argument("--store",
                        help="artifact-store directory (reuses compiled "
                             "traces and LUTs)")
    parser.add_argument("--lut", help="reuse a LUT JSON file")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress per-window rolling lines")
    parser.add_argument("--json",
                        help="write the final result frame JSON here")
    parser.add_argument("--url",
                        help="submit to a running sweep service instead "
                             "of evaluating locally (needs --grid)")
    parser.add_argument("--grid",
                        help="scenario grid file for --url mode (config "
                             "axes of the stream job)")
    parser.add_argument("--tenant", default="anonymous",
                        help="tenant name for --url mode")
    parser.add_argument("--timeout", type=float, default=300.0,
                        help="per-request socket timeout and wait "
                             "deadline for --url mode (default: 300)")


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


def run(args):
    """Streaming (windowed) evaluation — local or against the service.

    Local mode drives a :class:`repro.stream.StreamingSession` over the
    named programs (or the seeded random program stream), printing one
    rolling-result line per window; remote mode (``--url``) submits a
    ``stream`` job and follows its per-window events off ``/events``.
    An unbounded local stream runs until Ctrl-C.
    """
    if args.url:
        return _remote_stream(args)
    from repro.stream import StreamingSession, kernel_source, random_source

    validate_policies(args.policy or [])
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
    streaming = StreamingSession(
        session(args, store=args.store or None),
        window_cycles=args.window_cycles, max_windows=args.max_windows,
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
    from repro.cli.submit import follow_job
    from repro.lab.scenario import ScenarioGrid
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    if not args.grid:
        print("error: --url needs --grid (the config axes of the stream "
              "job)", file=sys.stderr)
        return 2
    grid = ScenarioGrid.from_file(args.grid)
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

    def on_event(event):
        if event.get("event") != "window" or args.quiet:
            return
        best = max(event["rows"],
                   key=lambda row: row["effective_frequency_mhz"])
        violations = sum(int(row["num_violations"])
                         for row in event["rows"])
        print(f"  {event['design_point']} {event['program']} "
              f"window {event['window']}: best {best['config']} "
              f"{best['effective_frequency_mhz']:.0f} MHz, "
              f"{violations} violations", file=sys.stderr)

    return follow_job(client, job, args, on_event)
