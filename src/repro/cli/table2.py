"""``repro table2``: render a delay LUT in the paper's Table II layout."""

from repro.cli import add_design_arguments, session


def add_arguments(parser):
    add_design_arguments(parser)
    parser.add_argument("--lut", help="LUT JSON file")


def run(args):
    """Render the characterised delay LUT in the paper's Table II
    layout (per-class, per-stage-group delays)."""
    print(session(args).lut.render())
    return 0
