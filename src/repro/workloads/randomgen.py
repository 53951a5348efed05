"""Directed semi-random characterisation program generator (paper Fig. 2).

The characterisation flow needs programs that (a) exercise every
instruction timing class often enough to clear the extraction's occurrence
threshold, and (b) *provably excite each class's worst-case paths* so the
extracted LUT converges to the true dynamic worst case.  Purely random
programs do neither reliably — hence "directed semi-random": a random
instruction mix is interleaved with per-class worst-pattern idioms (e.g.
all-ones multiplier operands, carry-propagating adds, high-address memory
accesses) and guaranteed-taken control transfers of every kind.

The generator emits instructions straight into a
:class:`~repro.asm.builder.ProgramBuilder`, which resolves the labels
after layout and encodes the words; the test oracle keeps the same
generator as assembly text, and the two programs are equal word for
word.
"""

from functools import lru_cache

from repro.asm.builder import ProgramBuilder
from repro.asm.program import DATA_BASE
from repro.utils.rng import RngStream, WeightedChoice

#: Registers reserved by the generator (never used as destinations).
_REG_SCRATCH_BASE = 20     # scratch memory base
_REG_HIGH_BASE = 21        # 0xFFFFFFF0 — worst-case address pattern
_REG_ALL_ONES = 22         # 0xFFFFFFFF
_REG_ONE = 23              # constant 1 (worst-case divisor)
_REG_REPEAT = 31           # outer repeat counter

_GP_REGS = tuple(range(2, 16))   # general destinations/sources
_SOURCE_REGS = _GP_REGS + (_REG_ALL_ONES,)

#: Random-mix weights (loosely after embedded instruction mixes).
_MIX = [
    ("l.add", 10), ("l.addi", 14), ("l.sub", 3),
    ("l.and", 3), ("l.andi", 3), ("l.or", 3), ("l.ori", 3),
    ("l.xor", 3), ("l.xori", 2),
    ("l.sll", 2), ("l.slli", 3), ("l.srl", 2), ("l.srli", 2),
    ("l.sra", 1), ("l.srai", 1), ("l.ror", 1), ("l.rori", 1),
    ("l.mul", 3), ("l.muli", 1), ("l.mulu", 1),
    ("l.lwz", 8), ("l.lbz", 2), ("l.lbs", 1), ("l.lhz", 2), ("l.lhs", 1),
    ("l.sw", 5), ("l.sb", 1), ("l.sh", 1),
    ("l.movhi", 2), ("l.cmov", 1),
    ("l.exths", 1), ("l.extbs", 1), ("l.exthz", 1), ("l.extbz", 1),
    ("l.ff1", 1),
    ("l.sfeq", 1), ("l.sfne", 1), ("l.sfgts", 1), ("l.sfltu", 1),
    ("l.sfgtsi", 1), ("l.sfltui", 1),
    ("l.nop", 3),
]

#: The mix as one validated cumulative table, drawn per instruction.
_MIX_TOTAL = sum(weight for _, weight in _MIX)
_MIX_CHOICE = WeightedChoice(
    [mnemonic for mnemonic, _ in _MIX],
    [weight / _MIX_TOTAL for _, weight in _MIX],
)

_SCRATCH_WORDS = 64


class _Emitter(ProgramBuilder):
    """A :class:`ProgramBuilder` that also numbers the generator's
    labels."""

    def __init__(self, name):
        super().__init__(name)
        self._label_index = 0

    def fresh(self, prefix):
        name = f"{prefix}_{self._label_index}"
        self._label_index += 1
        return name


def _emit_prologue(out, repeats):
    out.label("start")
    out.op("l.movhi", rd=_REG_SCRATCH_BASE, target="scratch", half="hi")
    out.op("l.ori", rd=_REG_SCRATCH_BASE, ra=_REG_SCRATCH_BASE,
           target="scratch", half="lo")
    out.op("l.movhi", rd=_REG_HIGH_BASE, imm=0xFFFF)
    out.op("l.ori", rd=_REG_HIGH_BASE, ra=_REG_HIGH_BASE, imm=0xFFF0)
    out.op("l.movhi", rd=_REG_ALL_ONES, imm=0xFFFF)
    out.op("l.ori", rd=_REG_ALL_ONES, ra=_REG_ALL_ONES, imm=0xFFFF)
    out.op("l.addi", rd=_REG_ONE, imm=1)
    out.op("l.addi", rd=_REG_REPEAT, imm=repeats)
    for index, reg in enumerate(_GP_REGS):
        out.op("l.addi", rd=reg, imm=(index * 1237 + 11) % 4000)
    out.label("outer_loop")


def _emit_epilogue(out):
    out.op("l.addi", rd=_REG_REPEAT, ra=_REG_REPEAT, imm=-1)
    out.op("l.sfgtsi", ra=_REG_REPEAT, imm=0)
    out.op("l.bf", target="outer_loop")
    out.op("l.nop")
    out.op("l.nop", imm=1)
    out.op("l.nop")
    out.op("l.nop")
    out.org(DATA_BASE)
    out.label("scratch")
    for _ in range(_SCRATCH_WORDS):
        out.word(0)


#: One worst-case excitation per timing class (the directed part), as
#: ``(mnemonic, rd, ra, rb, imm)``.  These idioms make the extracted LUT
#: converge to the profile's true per-class worst cases (see
#: repro.timing.excitation.is_worst_pattern).
_ONES = _REG_ALL_ONES
_HIGH = _REG_HIGH_BASE
_WORST_PATTERNS = (
    ("l.add", 5, _ONES, _ONES, 0),         # full carry chain
    ("l.addi", 6, _ONES, 0, -1),
    ("l.sub", 7, _ONES, _ONES, 0),
    ("l.and", 5, _ONES, _ONES, 0),
    ("l.andi", 6, _ONES, 0, 0xFFFF),
    ("l.or", 7, _ONES, _ONES, 0),
    ("l.xor", 5, _ONES, _ONES, 0),
    ("l.xori", 6, _ONES, 0, -1),
    ("l.sll", 7, _ONES, _REG_ONE, 0),
    ("l.slli", 5, _ONES, 0, 31),
    ("l.srl", 6, _ONES, _REG_ONE, 0),
    ("l.srli", 7, _ONES, 0, 31),
    ("l.sra", 5, _ONES, _REG_ONE, 0),
    ("l.srai", 6, _ONES, 0, 31),
    ("l.ror", 7, _ONES, _REG_ONE, 0),
    ("l.rori", 5, _ONES, 0, 13),
    ("l.mul", 6, _ONES, _ONES, 0),         # worst multiplier operands
    ("l.muli", 7, _ONES, 0, -1),
    ("l.mulu", 5, _ONES, _ONES, 0),
    ("l.div", 6, _ONES, _REG_ONE, 0),      # longest divider sequence
    ("l.divu", 7, _ONES, _REG_ONE, 0),
    ("l.lwz", 5, _HIGH, 0, 0),             # worst-case address lines
    ("l.lbz", 6, _HIGH, 0, 1),
    ("l.lhz", 7, _HIGH, 0, 2),
    ("l.sw", 0, _HIGH, _ONES, 4),
    ("l.sb", 0, _HIGH, _ONES, 8),
    ("l.sh", 0, _HIGH, _ONES, 10),
    ("l.sfeq", 0, _ONES, _ONES, 0),
    ("l.sfgtu", 0, _ONES, _ONES, 0),
    ("l.movhi", 5, 0, 0, 0xFFFF),
    ("l.cmov", 6, _ONES, _ONES, 0),
    ("l.exths", 7, _ONES, 0, 0),
    ("l.extbz", 5, _ONES, 0, 0),
    ("l.ff1", 6, _ONES, 0, 0),
)


def _worst_pattern_idioms(out):
    """Emit the worst-case excitations, then guaranteed-taken control
    transfers of every kind."""
    for mnemonic, rd, ra, rb, imm in _WORST_PATTERNS:
        out.op(mnemonic, rd, ra, rb, imm)
    taken_bf = out.fresh("bf")
    out.op("l.sfeq")                             # flag := 1
    out.op("l.bf", target=taken_bf)
    out.op("l.nop")
    out.label(taken_bf)
    taken_bnf = out.fresh("bnf")
    out.op("l.sfne")                             # flag := 0
    out.op("l.bnf", target=taken_bnf)
    out.op("l.nop")
    out.label(taken_bnf)
    for kind in ("j", "jal"):
        target = out.fresh(kind)
        out.op(f"l.{kind}", target=target)
        out.op("l.nop")
        out.label(target)
    for kind in ("jr", "jalr"):
        target = out.fresh(kind)
        out.op("l.movhi", rd=7, target=target, half="hi")
        out.op("l.ori", rd=7, ra=7, target=target, half="lo")
        out.op(f"l.{kind}", rb=7)
        out.op("l.nop")
        out.label(target)


def _random_instruction(out, rng):
    mnemonic = rng.draw(_MIX_CHOICE)
    rd = rng.choice(_GP_REGS)
    ra = rng.choice(_SOURCE_REGS)
    rb = rng.choice(_SOURCE_REGS)
    base = _REG_SCRATCH_BASE

    if mnemonic in ("l.lwz", "l.sw"):
        offset = 4 * rng.integers(0, _SCRATCH_WORDS)
        if mnemonic == "l.lwz":
            out.op("l.lwz", rd=rd, ra=base, imm=offset)
        else:
            out.op("l.sw", ra=base, rb=rb, imm=offset)
    elif mnemonic in ("l.lhz", "l.lhs", "l.sh"):
        offset = 2 * rng.integers(0, 2 * _SCRATCH_WORDS)
        if mnemonic == "l.sh":
            out.op("l.sh", ra=base, rb=rb, imm=offset)
        else:
            out.op(mnemonic, rd=rd, ra=base, imm=offset)
    elif mnemonic in ("l.lbz", "l.lbs", "l.sb"):
        offset = rng.integers(0, 4 * _SCRATCH_WORDS)
        if mnemonic == "l.sb":
            out.op("l.sb", ra=base, rb=rb, imm=offset)
        else:
            out.op(mnemonic, rd=rd, ra=base, imm=offset)
    elif mnemonic in ("l.slli", "l.srli", "l.srai", "l.rori"):
        out.op(mnemonic, rd=rd, ra=ra, imm=rng.integers(0, 32))
    elif mnemonic in ("l.addi", "l.muli", "l.xori"):
        out.op(mnemonic, rd=rd, ra=ra, imm=rng.integers(-2048, 2048))
    elif mnemonic in ("l.andi", "l.ori"):
        out.op(mnemonic, rd=rd, ra=ra, imm=rng.integers(0, 65536))
    elif mnemonic == "l.movhi":
        out.op("l.movhi", rd=rd, imm=rng.integers(0, 65536))
    elif mnemonic in ("l.exths", "l.extbs", "l.exthz", "l.extbz", "l.ff1"):
        out.op(mnemonic, rd=rd, ra=ra)
    elif mnemonic in ("l.sfgtsi", "l.sfltui"):
        out.op(mnemonic, ra=ra, imm=rng.integers(0, 2048))
    elif mnemonic in ("l.sfeq", "l.sfne", "l.sfgts", "l.sfltu"):
        out.op(mnemonic, ra=ra, rb=rb)
    elif mnemonic == "l.nop":
        out.op("l.nop")
    else:   # three-register ALU forms
        out.op(mnemonic, rd=rd, ra=ra, rb=rb)


def _random_skip_branch(out, rng):
    """A data-dependent conditional branch over a couple of instructions."""
    label = out.fresh("skip")
    ra = rng.choice(_GP_REGS)
    out.op("l.sfgtsi", ra=ra, imm=rng.integers(0, 4000))
    out.op("l.bf" if rng.uniform() < 0.5 else "l.bnf", target=label)
    out.op("l.nop")
    for _ in range(rng.integers(1, 4)):
        _random_instruction(out, rng)
    out.label(label)


@lru_cache(maxsize=64)
def generate_characterization_program(seed=1, length=1200, repeats=3):
    """Generate a characterisation program, encoded straight to words.

    Parameters
    ----------
    seed:
        Generator seed (deterministic output).
    length:
        Approximate number of random-mix instructions per repeat block.
    repeats:
        Outer-loop count: the same static code runs ``repeats`` times with
        evolving register contents, multiplying dynamic coverage.

    Generation is deterministic in its arguments, so the ``Program`` is
    memoised per process — the same sharing contract as
    ``Kernel.program()`` (callers must not mutate the image).
    """
    rng = RngStream(f"chargen/{seed}", root_seed=0xC0FFEE ^ seed)
    out = _Emitter(f"chargen-{seed}")
    _emit_prologue(out, repeats)
    emitted = 0
    while emitted < length:
        # a directed idiom burst roughly every 120 random instructions
        if emitted % 120 == 0:
            _worst_pattern_idioms(out)
        if rng.uniform() < 0.08:
            _random_skip_branch(out, rng)
            emitted += 3
        else:
            _random_instruction(out, rng)
            emitted += 1
    _emit_epilogue(out)
    return out.build()


def stream_seed(seed, index):
    """Per-segment seed for :func:`program_stream` (deterministic, stable).

    A splitmix-style integer mix so consecutive stream indices land on
    well-separated generator seeds instead of ``seed + index`` (which would
    alias neighbouring streams).
    """
    z = (int(seed) * 0x9E3779B97F4A7C15 + int(index) + 1) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & 0xFFFFFFFFFFFFFFFF
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & 0xFFFFFFFFFFFFFFFF
    return (z ^ (z >> 31)) & 0x7FFFFFFF


def program_stream(seed=1, *, length=1200, repeats=3, unique=None, count=None):
    """Seeded stream of assembled characterisation programs.

    Yields ``generate_characterization_program`` outputs whose segment
    seeds are derived deterministically from ``(seed, index)`` — the same
    ``seed`` always produces the same program sequence, so streaming runs
    are replayable and a finite prefix can be re-materialised for
    offline-equivalence checks.

    Parameters
    ----------
    seed:
        Stream seed; every segment seed derives from it via
        :func:`stream_seed`.
    length / repeats:
        Forwarded to :func:`generate_characterization_program`.
    unique:
        When set, only ``unique`` distinct programs are generated and the
        stream loops over them (``index % unique``) — multi-million-cycle
        workloads without unbounded assembly work, and all segments stay
        inside the memoisation caches.  ``None`` draws a fresh program
        per segment, bypassing the ``lru_cache`` entirely: an unbounded
        stream of unique programs must not accumulate cache entries.
    count:
        Total number of programs to yield; ``None`` streams forever.
    """
    if unique is not None and unique < 1:
        raise ValueError("unique must be >= 1")
    if count is not None and count < 0:
        raise ValueError("count must be >= 0")
    index = 0
    generate = (generate_characterization_program if unique is not None
                else generate_characterization_program.__wrapped__)
    while count is None or index < count:
        position = index if unique is None else index % unique
        yield generate(
            seed=stream_seed(seed, position), length=length, repeats=repeats
        )
        index += 1
