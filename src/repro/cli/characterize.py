"""``repro characterize``: extract the design point's delay LUT."""

import pathlib
import sys

from repro.cli import add_design_arguments, session


def add_arguments(parser):
    add_design_arguments(parser)
    parser.add_argument("-o", "--output", help="write the LUT as JSON")


def run(args):
    """Characterise the design point and print or write the delay LUT
    (gate-sim substitute + DTA + extraction over the standard suite)."""
    current = session(args, announce=False)
    print(f"characterising {current.design.name} ...", file=sys.stderr)
    result = current.characterize()
    text = result.lut.to_json()
    if args.output:
        pathlib.Path(args.output).write_text(text)
        print(f"wrote {args.output} ({result.total_cycles} cycles, "
              f"{len(result.lut.classes())} classes)")
    else:
        print(text)
    return 0
