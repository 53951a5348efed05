"""Directed semi-random characterisation program generator (paper Fig. 2).

The characterisation flow needs programs that (a) exercise every
instruction timing class often enough to clear the extraction's occurrence
threshold, and (b) *provably excite each class's worst-case paths* so the
extracted LUT converges to the true dynamic worst case.  Purely random
programs do neither reliably — hence "directed semi-random": a random
instruction mix is interleaved with per-class worst-pattern idioms (e.g.
all-ones multiplier operands, carry-propagating adds, high-address memory
accesses) and guaranteed-taken control transfers of every kind.

The generated program is plain OR1K assembly and runs on both simulators.
"""

from functools import lru_cache

from repro.asm import assemble
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


class _Emitter:
    def __init__(self):
        self.lines = []
        self._label_index = 0

    def emit(self, text):
        self.lines.append(f"    {text}")

    def label(self, prefix="gl"):
        name = f"{prefix}_{self._label_index}"
        self._label_index += 1
        return name

    def place(self, name):
        self.lines.append(f"{name}:")

    def source(self):
        return "\n".join(self.lines)


def _emit_prologue(out, repeats):
    out.place("start")
    out.emit(f"l.movhi r{_REG_SCRATCH_BASE}, hi(scratch)")
    out.emit(f"l.ori   r{_REG_SCRATCH_BASE}, r{_REG_SCRATCH_BASE}, lo(scratch)")
    out.emit(f"l.movhi r{_REG_HIGH_BASE}, 0xffff")
    out.emit(f"l.ori   r{_REG_HIGH_BASE}, r{_REG_HIGH_BASE}, 0xfff0")
    out.emit(f"l.movhi r{_REG_ALL_ONES}, 0xffff")
    out.emit(f"l.ori   r{_REG_ALL_ONES}, r{_REG_ALL_ONES}, 0xffff")
    out.emit(f"l.addi  r{_REG_ONE}, r0, 1")
    out.emit(f"l.addi  r{_REG_REPEAT}, r0, {repeats}")
    for index, reg in enumerate(_GP_REGS):
        out.emit(f"l.addi  r{reg}, r0, {(index * 1237 + 11) % 4000}")
    out.place("outer_loop")


def _emit_epilogue(out):
    out.emit(f"l.addi  r{_REG_REPEAT}, r{_REG_REPEAT}, -1")
    out.emit(f"l.sfgtsi r{_REG_REPEAT}, 0")
    out.emit("l.bf    outer_loop")
    out.emit("l.nop")
    out.emit("l.nop   0x1")
    out.emit("l.nop")
    out.emit("l.nop")
    out.lines.append(".data")
    out.place("scratch")
    out.emit(f".space {_SCRATCH_WORDS * 4}")


def _worst_pattern_idioms(out):
    """Emit one worst-case excitation per timing class (directed part).

    These idioms make the extracted LUT converge to the profile's true
    per-class worst cases (see repro.timing.excitation.is_worst_pattern).
    """
    ones = f"r{_REG_ALL_ONES}"
    high = f"r{_REG_HIGH_BASE}"
    out.emit(f"l.add   r5, {ones}, {ones}")      # full carry chain
    out.emit(f"l.addi  r6, {ones}, -1")
    out.emit(f"l.sub   r7, {ones}, {ones}")
    out.emit(f"l.and   r5, {ones}, {ones}")
    out.emit(f"l.andi  r6, {ones}, 0xffff")
    out.emit(f"l.or    r7, {ones}, {ones}")
    out.emit(f"l.xor   r5, {ones}, {ones}")
    out.emit(f"l.xori  r6, {ones}, -1")
    out.emit(f"l.sll   r7, {ones}, r{_REG_ONE}")
    out.emit(f"l.slli  r5, {ones}, 31")
    out.emit(f"l.srl   r6, {ones}, r{_REG_ONE}")
    out.emit(f"l.srli  r7, {ones}, 31")
    out.emit(f"l.sra   r5, {ones}, r{_REG_ONE}")
    out.emit(f"l.srai  r6, {ones}, 31")
    out.emit(f"l.ror   r7, {ones}, r{_REG_ONE}")
    out.emit(f"l.rori  r5, {ones}, 13")
    out.emit(f"l.mul   r6, {ones}, {ones}")      # worst multiplier operands
    out.emit(f"l.muli  r7, {ones}, -1")
    out.emit(f"l.mulu  r5, {ones}, {ones}")
    out.emit(f"l.div   r6, {ones}, r{_REG_ONE}") # longest divider sequence
    out.emit(f"l.divu  r7, {ones}, r{_REG_ONE}")
    out.emit(f"l.lwz   r5, 0({high})")           # worst-case address lines
    out.emit(f"l.lbz   r6, 1({high})")
    out.emit(f"l.lhz   r7, 2({high})")
    out.emit(f"l.sw    4({high}), {ones}")
    out.emit(f"l.sb    8({high}), {ones}")
    out.emit(f"l.sh    10({high}), {ones}")
    out.emit(f"l.sfeq  {ones}, {ones}")
    out.emit(f"l.sfgtu {ones}, {ones}")
    out.emit("l.movhi r5, 0xffff")
    out.emit(f"l.cmov  r6, {ones}, {ones}")
    out.emit(f"l.exths r7, {ones}")
    out.emit(f"l.extbz r5, {ones}")
    out.emit(f"l.ff1   r6, {ones}")
    # guaranteed-taken control transfers of every kind
    taken_bf = out.label("bf")
    out.emit("l.sfeq  r0, r0")                   # flag := 1
    out.emit(f"l.bf    {taken_bf}")
    out.emit("l.nop")
    out.place(taken_bf)
    taken_bnf = out.label("bnf")
    out.emit("l.sfne  r0, r0")                   # flag := 0
    out.emit(f"l.bnf   {taken_bnf}")
    out.emit("l.nop")
    out.place(taken_bnf)
    target_j = out.label("j")
    out.emit(f"l.j     {target_j}")
    out.emit("l.nop")
    out.place(target_j)
    target_jal = out.label("jal")
    out.emit(f"l.jal   {target_jal}")
    out.emit("l.nop")
    out.place(target_jal)
    target_jr = out.label("jr")
    out.emit(f"l.movhi r7, hi({target_jr})")
    out.emit(f"l.ori   r7, r7, lo({target_jr})")
    out.emit("l.jr    r7")
    out.emit("l.nop")
    out.place(target_jr)
    target_jalr = out.label("jalr")
    out.emit(f"l.movhi r7, hi({target_jalr})")
    out.emit(f"l.ori   r7, r7, lo({target_jalr})")
    out.emit("l.jalr  r7")
    out.emit("l.nop")
    out.place(target_jalr)


def _random_instruction(out, rng):
    mnemonic = rng.draw(_MIX_CHOICE)
    rd = rng.choice(_GP_REGS)
    ra = rng.choice(_SOURCE_REGS)
    rb = rng.choice(_SOURCE_REGS)

    if mnemonic in ("l.lwz", "l.sw"):
        offset = 4 * rng.integers(0, _SCRATCH_WORDS)
        if mnemonic == "l.lwz":
            out.emit(f"l.lwz   r{rd}, {offset}(r{_REG_SCRATCH_BASE})")
        else:
            out.emit(f"l.sw    {offset}(r{_REG_SCRATCH_BASE}), r{rb}")
    elif mnemonic in ("l.lhz", "l.lhs", "l.sh"):
        offset = 2 * rng.integers(0, 2 * _SCRATCH_WORDS)
        if mnemonic == "l.sh":
            out.emit(f"l.sh    {offset}(r{_REG_SCRATCH_BASE}), r{rb}")
        else:
            out.emit(f"{mnemonic} r{rd}, {offset}(r{_REG_SCRATCH_BASE})")
    elif mnemonic in ("l.lbz", "l.lbs", "l.sb"):
        offset = rng.integers(0, 4 * _SCRATCH_WORDS)
        if mnemonic == "l.sb":
            out.emit(f"l.sb    {offset}(r{_REG_SCRATCH_BASE}), r{rb}")
        else:
            out.emit(f"{mnemonic} r{rd}, {offset}(r{_REG_SCRATCH_BASE})")
    elif mnemonic in ("l.slli", "l.srli", "l.srai", "l.rori"):
        out.emit(f"{mnemonic} r{rd}, r{ra}, {rng.integers(0, 32)}")
    elif mnemonic in ("l.addi", "l.muli", "l.xori"):
        out.emit(f"{mnemonic} r{rd}, r{ra}, {rng.integers(-2048, 2048)}")
    elif mnemonic in ("l.andi", "l.ori"):
        out.emit(f"{mnemonic} r{rd}, r{ra}, {rng.integers(0, 65536)}")
    elif mnemonic == "l.movhi":
        out.emit(f"l.movhi r{rd}, {rng.integers(0, 65536)}")
    elif mnemonic in ("l.exths", "l.extbs", "l.exthz", "l.extbz", "l.ff1"):
        out.emit(f"{mnemonic} r{rd}, r{ra}")
    elif mnemonic in ("l.sfgtsi", "l.sfltui"):
        imm = rng.integers(0, 2048)
        out.emit(f"{mnemonic} r{ra}, {imm}")
    elif mnemonic in ("l.sfeq", "l.sfne", "l.sfgts", "l.sfltu"):
        out.emit(f"{mnemonic} r{ra}, r{rb}")
    elif mnemonic == "l.nop":
        out.emit("l.nop")
    else:   # three-register ALU forms
        out.emit(f"{mnemonic} r{rd}, r{ra}, r{rb}")


def _random_skip_branch(out, rng):
    """A data-dependent conditional branch over a couple of instructions."""
    label = out.label("skip")
    ra = rng.choice(_GP_REGS)
    out.emit(f"l.sfgtsi r{ra}, {rng.integers(0, 4000)}")
    out.emit(f"{'l.bf' if rng.uniform() < 0.5 else 'l.bnf'}    {label}")
    out.emit("l.nop")
    for _ in range(rng.integers(1, 4)):
        _random_instruction(out, rng)
    out.place(label)


def generate_characterization_source(seed=1, length=1200, repeats=3):
    """Generate the assembly text of a characterisation program.

    Parameters
    ----------
    seed:
        Generator seed (deterministic output).
    length:
        Approximate number of random-mix instructions per repeat block.
    repeats:
        Outer-loop count: the same static code runs ``repeats`` times with
        evolving register contents, multiplying dynamic coverage.
    """
    rng = RngStream(f"chargen/{seed}", root_seed=0xC0FFEE ^ seed)
    out = _Emitter()
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
    return out.source()


@lru_cache(maxsize=64)
def generate_characterization_program(seed=1, length=1200, repeats=3):
    """Generate and assemble a characterisation program.

    Generation is deterministic in its arguments, so the assembled
    ``Program`` is memoised per process — the same sharing contract as
    ``Kernel.program()`` (callers must not mutate the image).
    """
    source = generate_characterization_source(
        seed=seed, length=length, repeats=repeats
    )
    return assemble(source, name=f"chargen-{seed}")


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
