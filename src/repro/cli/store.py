"""``repro store``: artifact-store maintenance (``store gc``)."""

import sys

from repro.cli import parse_size


def add_arguments(parser):
    commands = parser.add_subparsers(dest="store_command", required=True)
    gc = commands.add_parser(
        "gc",
        help="evict least-recently-used artifacts down to a size budget",
    )
    gc.add_argument("--store", required=True,
                    help="artifact-store directory")
    gc.add_argument("--max-size", required=True,
                    help="size budget, e.g. 500M, 2G, 4096 (bytes)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report what would be evicted without deleting")


def run(args):
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
