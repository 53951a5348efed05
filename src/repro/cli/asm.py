"""``repro asm``: assemble a program and print its listing."""

from repro.cli import load_program


def add_arguments(parser):
    parser.add_argument("program", help="kernel name or assembly file")


def run(args):
    """Assemble a program and print its disassembly listing."""
    from repro.asm import disassemble_program

    program = load_program(args.program)
    print(f"# {program.name}: {program.size_words} words, "
          f"entry {program.entry:#x}")
    print(disassemble_program(program))
    return 0
