"""Programmatic assembly builder.

The directed semi-random test generator (paper Fig. 2, "directed semi-random
test generation (Python)") emits instructions programmatically; building
text and re-parsing it would be wasteful there.  ``ProgramBuilder`` provides
a thin, explicit API over the assembler's internals with label support.
"""

from repro.asm.program import Program, TEXT_BASE
from repro.isa.encoding import encode
from repro.isa.instruction import Instruction
from repro.isa.opcodes import Format, spec_for
from repro.isa.registers import parse_register


class ProgramBuilder:
    """Accumulates instructions and data words, then emits a Program.

    Label references in control transfers may be forward; they are resolved
    at :meth:`build` time.
    """

    def __init__(self, name="generated", base=TEXT_BASE):
        self.name = name
        self._address = base
        self._entry = base
        self._items = []     # (address, mnemonic, operands, label, half)
        self._labels = {}

    @property
    def address(self):
        """Address of the next emitted word."""
        return self._address

    def label(self, name):
        """Define a label at the current address."""
        if name in self._labels:
            raise ValueError(f"duplicate label {name!r}")
        self._labels[name] = self._address
        return self

    def op(self, mnemonic, rd=0, ra=0, rb=0, imm=0, target=None,
           half=None):
        """Emit one instruction.

        ``target`` names a label for pc-relative transfers; the immediate is
        patched during :meth:`build`.  With ``half="hi"`` or ``"lo"`` the
        immediate is instead the upper or lower half-word of the label's
        address, as the assembler's ``hi()`` / ``lo()`` (the ``l.movhi`` +
        ``l.ori`` idiom).  Registers may be given as indices or names
        (``"r3"``).
        """
        spec_for(mnemonic)  # validate early
        if half not in (None, "hi", "lo"):
            raise ValueError(f"half must be 'hi' or 'lo', got {half!r}")
        self._items.append((
            self._address,
            mnemonic,
            {
                "rd": _reg(rd),
                "ra": _reg(ra),
                "rb": _reg(rb),
                "imm": imm,
            },
            target,
            half,
        ))
        self._address += 4
        return self

    def word(self, value):
        """Emit a literal data word at the current address."""
        self._items.append(
            (self._address, ".word", {"imm": value}, None, None)
        )
        self._address += 4
        return self

    def org(self, address):
        """Move the emission address (no fill)."""
        if address % 4:
            raise ValueError(f"unaligned .org address {address:#x}")
        self._address = address
        return self

    def entry(self, address=None):
        """Set the entry point (defaults to the current address)."""
        self._entry = self._address if address is None else address
        return self

    def nop_halt(self):
        """Emit the simulator halt convention (``l.nop 0x1``)."""
        return self.op("l.nop", imm=1)

    def build(self):
        """Resolve labels and produce the :class:`Program`."""
        program = Program(name=self.name, entry=self._entry)
        for address, mnemonic, fields, target, half in self._items:
            if mnemonic == ".word":
                program.add_word(address, fields["imm"] & 0xFFFFFFFF)
                continue
            imm = fields["imm"]
            if target is not None:
                if target not in self._labels:
                    raise ValueError(f"undefined label {target!r}")
                label_address = self._labels[target]
                if half == "hi":
                    imm = (label_address >> 16) & 0xFFFF
                elif half == "lo":
                    imm = label_address & 0xFFFF
                elif spec_for(mnemonic).fmt not in (Format.J, Format.BRANCH):
                    raise ValueError(
                        f"{mnemonic} cannot take a label target"
                    )
                else:
                    imm = (label_address - address) // 4
            instruction = Instruction(
                mnemonic, rd=fields["rd"], ra=fields["ra"],
                rb=fields["rb"], imm=imm,
            )
            program.add_word(address, encode(instruction), instruction)
        program.symbols = dict(self._labels)
        return program


def _reg(value):
    if isinstance(value, str):
        return parse_register(value)
    return value
