"""``repro run``: run a program on the cycle-accurate pipeline."""

from repro.cli import add_pipeline_spec_argument, load_program


def add_arguments(parser):
    parser.add_argument("program")
    parser.add_argument("--regs", action="store_true",
                        help="dump the full register file")
    add_pipeline_spec_argument(parser)


def run(args):
    """Run a program on the cycle-accurate pipeline of the selected
    spec, within the default cycle budget (the one ``evaluate`` and
    ``sweep`` use); print its instruction and cycle counts, CPI and
    registers."""
    from repro.sim import vector

    program = load_program(args.program)
    result = vector.simulate(program, spec=args.pipeline_spec)
    regs = result.state.regs
    print(f"{program.name}: {result.num_retired} instructions, "
          f"{result.num_cycles} cycles "
          f"(CPI {result.num_cycles / result.num_retired:.3f})")
    print(f"r11 = {regs[11]} ({regs[11]:#010x})")
    if args.regs:
        for index in range(0, 32, 4):
            print("  " + "  ".join(
                f"r{r:<2d}={regs[r]:#010x}"
                for r in range(index, index + 4)
            ))
    return 0
