"""Program image produced by the assembler and consumed by the simulator.

A :class:`Program` is a flat 32-bit address space image: a mapping from word-
aligned addresses to 32-bit words, a symbol table, an entry point, and — for
text words — the decoded :class:`~repro.isa.instruction.Instruction` so the
simulator does not need to re-decode on every fetch.
"""

from dataclasses import dataclass, field

from repro.isa.encoding import decode

#: Default base address of the text section.
TEXT_BASE = 0x0000_0000
#: Default base address of the data section (above typical text sizes).
DATA_BASE = 0x0001_0000


@dataclass
class Program:
    """An assembled program image."""

    name: str = "program"
    words: dict = field(default_factory=dict)          # addr -> 32-bit word
    instructions: dict = field(default_factory=dict)   # addr -> Instruction
    symbols: dict = field(default_factory=dict)        # name -> address
    entry: int = TEXT_BASE

    def add_word(self, address, word, instruction=None):
        """Place a 32-bit word at a word-aligned address."""
        if address % 4 != 0:
            raise ValueError(f"word address not aligned: {address:#x}")
        if not 0 <= word < (1 << 32):
            raise ValueError(f"not a 32-bit word: {word:#x}")
        if address in self.words:
            raise ValueError(f"address {address:#x} assembled twice")
        self.words[address] = word
        if instruction is not None:
            self.instructions[address] = instruction

    def instruction_at(self, address):
        """Decoded instruction at ``address`` (decoding lazily if needed)."""
        if address in self.instructions:
            return self.instructions[address]
        if address in self.words:
            instruction = decode(self.words[address])
            self.instructions[address] = instruction
            return instruction
        raise KeyError(f"no instruction at {address:#010x}")

    @property
    def text_addresses(self):
        """Sorted addresses holding decoded instructions."""
        return sorted(self.instructions)

    @property
    def size_words(self):
        return len(self.words)

    def symbol(self, name):
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"undefined symbol {name!r} in {self.name}") from None

    def load_into(self, memory):
        """Copy the image into a simulator memory model (one bulk fill)."""
        memory.store_words(self.words)

    def dump(self, limit=None):
        """Human-readable listing (address, word, disassembly)."""
        lines = []
        for index, address in enumerate(sorted(self.words)):
            if limit is not None and index >= limit:
                lines.append(f"... ({len(self.words) - limit} more words)")
                break
            word = self.words[address]
            if address in self.instructions:
                text = self.instructions[address].to_assembly()
            else:
                text = f".word {word:#010x}"
            lines.append(f"{address:08x}: {word:08x}  {text}")
        return "\n".join(lines)
