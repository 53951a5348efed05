"""``repro sta``: static timing analysis of the design's netlist."""

from repro.cli import add_design_arguments, build


def add_arguments(parser):
    add_design_arguments(parser)


def run(args):
    """Static timing analysis of the design's synthetic netlist: the
    critical path, the per-stage wall profile and the clock bound."""
    from repro.timing.sta import run_sta
    from repro.timing.wall import wall_profile
    from repro.utils.units import ps_to_mhz

    design = build(args)
    report = run_sta(design.netlist)
    print(report.summary())
    print(wall_profile(design.netlist).summary())
    print(f"clock bound: {report.critical_delay_ps:.0f} ps = "
          f"{ps_to_mhz(report.critical_delay_ps):.1f} MHz "
          f"@ {args.voltage:.2f} V")
    return 0
