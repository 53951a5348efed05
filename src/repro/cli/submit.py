"""``repro submit``: send a scenario grid to a running sweep service."""

import pathlib
import sys


def add_arguments(parser):
    parser.add_argument("--grid", required=True,
                        help="scenario grid file (.json/.toml)")
    parser.add_argument("--url", default="http://127.0.0.1:8787",
                        help="service URL (default: "
                             "http://127.0.0.1:8787)")
    parser.add_argument("--kind", default="sweep",
                        choices=["sweep", "evaluate", "train", "stream"],
                        help="job kind (default: sweep)")
    parser.add_argument("--tenant", default="anonymous",
                        help="tenant name for budget accounting")
    parser.add_argument("--wait", action="store_true",
                        help="stream progress and fetch the result frame")
    parser.add_argument("--timeout", type=float, default=600.0,
                        help="per-request socket timeout and --wait "
                             "deadline in seconds (default: 600)")
    parser.add_argument("--json",
                        help="with --wait: write the result frame JSON "
                             "here instead of stdout")


def run(args):
    """Submit a scenario grid to a running sweep service.

    Prints the job snapshot; with ``--wait`` streams progress events on
    stderr until the job finishes, then writes/prints the result frame.
    A cached or deduplicated submission is visible in the snapshot
    (``"cached": true`` / ``"deduped": true``).
    """
    from repro.lab.scenario import ScenarioGrid
    from repro.serve import ServeClient
    from repro.serve.client import ServeError

    grid = ScenarioGrid.from_file(args.grid)
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

    def on_event(event):
        if event.get("event") == "progress":
            print(f"  {event['done']}/{event['total']} units",
                  file=sys.stderr)

    return follow_job(client, job, args, on_event)


def follow_job(client, job, args, on_event):
    """Feed a job's events to ``on_event`` until it finishes, then write
    (``--json``) or print its result frame; returns the exit code."""
    from repro.serve.client import ServeError

    try:
        if job["state"] not in ("done", "failed"):
            for event in client.events(job["id"]):
                on_event(event)
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
