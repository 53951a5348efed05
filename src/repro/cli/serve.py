"""``repro serve``: the multi-tenant sweep service."""

import sys

from repro.cli import parse_size


def add_arguments(parser):
    parser.add_argument("--store", required=True,
                        help="shared artifact-store directory (the "
                             "service's cache and dedup fabric)")
    parser.add_argument("--host", default="127.0.0.1",
                        help="bind address (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8787,
                        help="bind port; 0 picks a free one "
                             "(default: 8787)")
    parser.add_argument("--workers", type=int, default=2,
                        help="concurrent job worker processes "
                             "(default: 2)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="shard workers inside each job's sweep "
                             "(default: 1)")
    parser.add_argument("--queue-limit", type=int, default=16,
                        help="active-job bound; submissions past it get "
                             "HTTP 429 (default: 16)")
    parser.add_argument("--tenant-budget",
                        help="per-tenant cached-frame budget (e.g. 100M): "
                             "LRU-evict a tenant's results past it")
    parser.add_argument("--store-max-size",
                        help="whole-store size budget (e.g. 2G), LRU-gc'd "
                             "after every completed job")
    parser.add_argument("--telemetry", action="store_true",
                        help="record serve.job spans (plus worker spans) "
                             "on the server tracer")


def run(args):
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
