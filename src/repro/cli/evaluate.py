"""``repro evaluate``: one program under one clock policy."""

from repro.cli import (
    POLICY_CHOICES,
    add_design_arguments,
    load_program,
    policy_arg,
    session,
    validate_policies,
)


def add_arguments(parser):
    parser.add_argument("program")
    add_design_arguments(parser)
    parser.add_argument("--policy", default="instruction",
                        type=policy_arg, metavar="POLICY",
                        help="policy name or learned:<model.npz> "
                             f"(choices: {', '.join(POLICY_CHOICES)})")
    parser.add_argument("--generator", default="ideal",
                        choices=["ideal", "ring", "pll"])
    parser.add_argument("--margin", type=float, default=0.0,
                        help="safety margin in percent")
    parser.add_argument("--lut", help="reuse a LUT JSON file")


def run(args):
    """Evaluate one program under one clock policy with ground-truth
    safety replay; exit 1 when any timing violation is recorded."""
    from repro.api import result_from_row

    program = load_program(args.program)   # fail fast on a bad spec
    validate_policies([args.policy])       # ... and on a bad model file
    frame = session(args).evaluate(
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
