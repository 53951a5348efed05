"""Pre-decoded program images and the dispatch-table ISS.

:func:`collect` is the package's one architectural simulator: every
pipeline run (:func:`repro.sim.vector.simulate`) starts with one pass of
it.  The reference semantics it is held to — an object-layer
``FunctionalSimulator`` that looks up each ``Instruction``'s spec and
evaluates a per-mnemonic ``compute`` per retired instruction — live in
the test oracle (``tests/oracle.py``), and ``tests/test_iss.py`` compares
the two field by field.

- :class:`DecodedImage` decodes a program **once** into a dense
  struct-of-arrays image: per text word a dispatch id, register indices,
  pre-substituted immediates (``l.andi`` masks, ``l.xori`` sign-extension,
  shift amounts) and — because the fetch address is known at decode time —
  precomputed branch targets and link values.  Metadata needed by the
  vectorized pipeline reconstruction (timing-class id, kind code, hazard
  ports) and by the EX replay (mnemonic id) is stored as NumPy columns,
  gathered per run by fancy indexing.  Images live in a
  per-program-content LRU shared by every caller.

- The decode is **table-driven**, because an unseen program pays it on
  every run: one row per :data:`SPECS` mnemonic (op id, immediate rule,
  class, kind, port and control flags) is built at import, a program's
  ``(rd, ra, rb, imm)`` fields are gathered in one pass into one integer
  array, every column is array arithmetic over them, and the slot tuples
  are zipped from the columns.  The image's memory snapshot is one bulk
  page fill (:meth:`~repro.sim.memory.Memory.store_words`).  The
  per-instruction reference encoder lives in the test oracle.

- :func:`collect` is a dispatch-table step loop over the image: plain int
  compares on the dispatch id, list-indexed register file, no ``isa``
  object attribute touched.  It produces the :class:`IssData` that
  ``vector.reconstruct`` consumes, and raises :class:`SimulationError`,
  with the reference's text, for every fault: a misaligned fetch, load,
  store or jump-register target, a control transfer in a delay slot, an
  undecodable word, an instruction outside the dispatch table and a
  budget overrun.  A fetch outside the dense text (sparse text, a jump
  into a data word, an empty program) decodes the run's memory on demand
  into a per-run extension (:class:`_RunText`); the shared image is never
  written, and only that miss branch pays for it.
"""

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from itertools import chain, repeat
from operator import attrgetter

import numpy as np

from repro.isa.encoding import EncodingError, decode
from repro.isa.opcodes import (
    KIND_CODE,
    MNEMONIC_ID,
    MNEMONICS,
    SPECS,
    InstructionKind,
)
from repro.isa.registers import REG_LINK
from repro.obs.trace import span as obs_span
from repro.sim.memory import Memory
from repro.sim.state import ArchState
from repro.utils.keys import HashedTuple

_MASK = 0xFFFFFFFF

#: ``l.nop`` immediate that terminates simulation (the mor1kx simulation
#: environment's idiom).
HALT_NOP_CODE = 0x1


class SimulationError(RuntimeError):
    """Raised for invalid execution (bad fetch, control in delay slot...)."""


#: Largest text word index served by the dense address -> slot table.
_MAX_DENSE_WORDS = 1 << 20

# -- dispatch ids -------------------------------------------------------------
# Grouped so the step loop can order its chain by dynamic frequency; the ids
# themselves carry no meaning beyond identity.
OP_ADDI = 0
OP_ADD = 1
OP_ADDC = 2
OP_SUB = 3
OP_ANDI = 4
OP_AND = 5
OP_ORI = 6
OP_OR = 7
OP_XORI = 8
OP_XOR = 9
OP_CMOV = 10
OP_SLLI = 11
OP_SLL = 12
OP_SRLI = 13
OP_SRL = 14
OP_SRAI = 15
OP_SRA = 16
OP_RORI = 17
OP_ROR = 18
OP_MULI = 19
OP_MUL = 20                   # l.mul and l.mulu: identical low-32 product
OP_DIV = 21
OP_DIVU = 22
OP_MOVHI = 23
OP_EXTHS = 24
OP_EXTBS = 25
OP_EXTHZ = 26
OP_EXTBZ = 27
OP_FF1 = 28
OP_SF = 29                    # register compare; aux = cond | signed << 3
OP_SFI = 30                   # immediate compare; aux2 = converted rhs
OP_LWZ = 31
OP_LBZ = 32
OP_LBS = 33
OP_LHZ = 34
OP_LHS = 35
OP_SW = 36
OP_SB = 37
OP_SH = 38
OP_J = 39
OP_JAL = 40
OP_JR = 41
OP_JALR = 42
OP_BF = 43
OP_BNF = 44
OP_NOP = 45
OP_HALT = 46

# -- immediate rules ----------------------------------------------------------
# ``aux`` of a slot: 0, imm & 0xFFFFFFFF, imm & 0xFFFF, sign-extended imm16,
# shift amount, movhi's high half, a per-mnemonic constant (set-flag
# condition), the raw immediate (memory offset), or the pc-relative target.
(_AUX_ZERO, _AUX_WORD, _AUX_LOW16, _AUX_SEXT16, _AUX_SHAMT, _AUX_HIGH16,
 _AUX_CONST, _AUX_IMM, _AUX_TARGET) = range(9)
# ``aux2``: 0, the signed or unsigned compare operand, or the link value.
_AUX2_ZERO, _AUX2_SIGNED, _AUX2_UNSIGNED, _AUX2_LINK = range(4)

_SF_CONDS = {"eq": 0, "ne": 1, "gt": 2, "ge": 3, "lt": 4, "le": 5}

_ALU_OPS = {
    "l.add": OP_ADD, "l.addc": OP_ADDC, "l.sub": OP_SUB, "l.and": OP_AND,
    "l.or": OP_OR, "l.xor": OP_XOR, "l.cmov": OP_CMOV,
}
_ALU_IMM_OPS = {
    "l.addi": (OP_ADDI, _AUX_WORD), "l.andi": (OP_ANDI, _AUX_LOW16),
    "l.ori": (OP_ORI, _AUX_LOW16), "l.xori": (OP_XORI, _AUX_SEXT16),
}
_SHIFT_OPS = {
    "l.sll": OP_SLL, "l.slli": OP_SLLI, "l.srl": OP_SRL, "l.srli": OP_SRLI,
    "l.sra": OP_SRA, "l.srai": OP_SRAI, "l.ror": OP_ROR, "l.rori": OP_RORI,
}
_MOVE_OPS = {
    "l.exths": OP_EXTHS, "l.extbs": OP_EXTBS, "l.exthz": OP_EXTHZ,
    "l.extbz": OP_EXTBZ, "l.ff1": OP_FF1,
}
_LOAD_OPS = {
    "l.lwz": OP_LWZ, "l.lbz": OP_LBZ, "l.lbs": OP_LBS,
    "l.lhz": OP_LHZ, "l.lhs": OP_LHS,
}
_STORE_OPS = {"l.sw": OP_SW, "l.sb": OP_SB, "l.sh": OP_SH}


def _dispatch_row(spec):
    """``(op, aux rule, aux constant, aux2 rule)`` of one mnemonic, or
    ``None`` when the dispatch table does not cover it (executing it
    raises :class:`SimulationError`).  ``l.nop`` decodes as
    :data:`OP_NOP`; the image build turns the halt immediate into
    :data:`OP_HALT`."""
    mnemonic = spec.mnemonic
    kind = spec.kind
    if kind == InstructionKind.NOP:
        return OP_NOP, _AUX_ZERO, 0, _AUX2_ZERO
    if kind == InstructionKind.ALU:
        if mnemonic in _ALU_IMM_OPS:
            op, rule = _ALU_IMM_OPS[mnemonic]
            return op, rule, 0, _AUX2_ZERO
        op = _ALU_OPS.get(mnemonic)
        return None if op is None else (op, _AUX_ZERO, 0, _AUX2_ZERO)
    if kind == InstructionKind.SHIFT:
        op = _SHIFT_OPS.get(mnemonic)
        if op is None:
            return None
        rule = _AUX_SHAMT if mnemonic.endswith("i") else _AUX_ZERO
        return op, rule, 0, _AUX2_ZERO
    if kind == InstructionKind.MUL:
        if mnemonic == "l.muli":
            return OP_MULI, _AUX_WORD, 0, _AUX2_ZERO
        return OP_MUL, _AUX_ZERO, 0, _AUX2_ZERO
    if kind == InstructionKind.DIV:
        op = OP_DIV if mnemonic == "l.div" else OP_DIVU
        return op, _AUX_ZERO, 0, _AUX2_ZERO
    if kind == InstructionKind.MOVE:
        if mnemonic == "l.movhi":
            return OP_MOVHI, _AUX_HIGH16, 0, _AUX2_ZERO
        op = _MOVE_OPS.get(mnemonic)
        return None if op is None else (op, _AUX_ZERO, 0, _AUX2_ZERO)
    if kind == InstructionKind.SETFLAG:
        base = mnemonic.replace("l.sf", "")
        immediate = spec.fmt.name == "SETFLAG_IMM"
        if immediate and base.endswith("i"):
            base = base[:-1]
        signed = base.endswith("s") or base in ("eq", "ne")
        cond = _SF_CONDS.get(base if base in ("eq", "ne") else base[:-1])
        if cond is None:
            return None
        aux = cond | (8 if signed else 0)
        if immediate:
            return (OP_SFI, _AUX_CONST, aux,
                    _AUX2_SIGNED if signed else _AUX2_UNSIGNED)
        return OP_SF, _AUX_CONST, aux, _AUX2_ZERO
    if kind == InstructionKind.LOAD:
        op = _LOAD_OPS.get(mnemonic)
        return None if op is None else (op, _AUX_IMM, 0, _AUX2_ZERO)
    if kind == InstructionKind.STORE:
        op = _STORE_OPS.get(mnemonic)
        return None if op is None else (op, _AUX_IMM, 0, _AUX2_ZERO)
    if kind == InstructionKind.JUMP:
        op = OP_JAL if mnemonic == "l.jal" else OP_J
        return op, _AUX_TARGET, 0, _AUX2_LINK
    if kind == InstructionKind.JUMP_REG:
        op = OP_JALR if mnemonic == "l.jalr" else OP_JR
        return op, _AUX_ZERO, 0, _AUX2_LINK
    if kind == InstructionKind.BRANCH:
        op = OP_BF if mnemonic == "l.bf" else OP_BNF
        return op, _AUX_TARGET, 0, _AUX2_ZERO
    return None


#: Timing classes in :data:`SPECS` order (the table's class ids).
_CLASSES = tuple(dict.fromkeys(spec.timing_class for spec in SPECS.values()))


def _build_table():
    """Per-mnemonic decode rows, one column array per field, indexed by
    :data:`~repro.isa.opcodes.MNEMONIC_ID`.  The extra last row (index
    ``-1``) describes a mnemonic outside :data:`SPECS`."""
    rows = []
    for mnemonic in MNEMONICS:
        spec = SPECS[mnemonic]
        dispatch = _dispatch_row(spec) or (-1, _AUX_ZERO, 0, _AUX2_ZERO)
        rows.append(dispatch + (
            _CLASSES.index(spec.timing_class), KIND_CODE[spec.kind],
            spec.writes_rd, spec.reads_ra, spec.reads_rb, spec.is_control,
        ))
    rows.append((-1, _AUX_ZERO, 0, _AUX2_ZERO, -1, -1,
                 False, False, False, False))
    columns = list(zip(*rows))
    table = {
        name: np.array(columns[index], dtype=np.int64)
        for index, name in enumerate(
            ("op", "aux_rule", "aux_const", "aux2_rule", "cls", "kind"))
    }
    for index, name in enumerate(
            ("writes_rd", "reads_ra", "reads_rb", "is_ctrl"), start=6):
        table[name] = np.array(columns[index], dtype=bool)
    return table


_TABLE = _build_table()

#: Integer instruction fields the decode gathers, in one pass over the
#: text, and the mnemonic it maps through :data:`MNEMONIC_ID`.
_INT_FIELDS = attrgetter("rd", "ra", "rb", "imm")
_MNEMONIC = attrgetter("mnemonic")

#: dtype of the mnemonic-id columns (:data:`MNEMONIC_ID` values, ``-1``
#: for none): they ride along with every retired instruction and slot, so
#: they take the narrowest type that holds every id (a table outgrowing
#: it makes the decode's ``np.fromiter`` raise).
MNEMONIC_DTYPE = np.int8


def _decode(addrs, instrs):
    """Table-driven decode of the text ``instrs`` at ``addrs``: the slot
    tuples and the metadata columns ``(pc, cls, kind, dest, src, mnem,
    halt)``, ``cls`` holding :data:`_CLASSES` indices (``-1`` outside the
    table) and ``halt`` marking the halt word.  Each immediate rule is a
    row of candidate values, and ``aux``/``aux2`` gather one per word."""
    count = len(addrs)
    rd, ra, rb, imm = np.fromiter(
        chain.from_iterable(map(_INT_FIELDS, instrs)),
        dtype=np.int64, count=4 * count,
    ).reshape(count, 4).T
    mnem = np.fromiter(
        map(MNEMONIC_ID.get, map(_MNEMONIC, instrs), repeat(-1)),
        dtype=MNEMONIC_DTYPE, count=count,
    )
    pc = np.array(addrs, dtype=np.int64)
    table = _TABLE
    columns = np.arange(count)

    op = table["op"][mnem]
    halt = (op == OP_NOP) & (imm == HALT_NOP_CODE)
    op[halt] = OP_HALT
    word = imm & _MASK
    low = imm & 0xFFFF
    zero = np.zeros(count, dtype=np.int64)
    aux = np.stack([   # in _AUX_* order
        zero, word, low, ((low ^ 0x8000) - 0x8000) & _MASK, imm & 0x1F,
        low << 16, table["aux_const"][mnem], imm, (pc + (imm << 2)) & _MASK,
    ])[table["aux_rule"][mnem], columns]
    aux2 = np.stack([  # in _AUX2_* order
        zero, (word ^ 0x80000000) - 0x80000000, word, (pc + 8) & _MASK,
    ])[table["aux2_rule"][mnem], columns]
    reads_rb = table["reads_rb"][mnem]
    bmask = word.astype(object)
    bmask[reads_rb] = None
    slots = list(zip(
        op.tolist(), rd.tolist(), ra.tolist(), rb.tolist(), aux.tolist(),
        aux2.tolist(), bmask.tolist(), table["is_ctrl"][mnem].tolist(),
    ))
    for index in np.flatnonzero(op < 0).tolist():
        slots[index] = None
    dest = np.where(table["writes_rd"][mnem], rd, -1)
    src = (np.where(table["reads_ra"][mnem], np.left_shift(1, ra), 0)
           | np.where(reads_rb, np.left_shift(1, rb), 0))
    return (slots, pc, table["cls"][mnem], table["kind"][mnem], dest, src,
            mnem, halt)


def _intern(cls, class_names):
    """Ids into ``class_names`` of the :data:`_CLASSES` indices ``cls``,
    appending the classes it lacks in first-seen order."""
    unique, first = np.unique(cls[cls >= 0], return_index=True)
    remap = np.full(len(_CLASSES) + 1, -1, dtype=np.int64)
    for index in unique[np.argsort(first)].tolist():
        name = _CLASSES[index]
        if name not in class_names:
            class_names.append(name)
        remap[index] = class_names.index(name)
    return remap[cls]


class DecodedImage:
    """Struct-of-arrays decode of one program's text section.

    ``slots`` holds one micro-op tuple ``(op, rd, ra, rb, aux, aux2,
    bmask, is_ctrl)`` per text word (``None`` when the mnemonic is outside
    the dispatch table): ``aux``/``aux2`` hold pre-substituted operands
    (effective immediates, branch targets, link values) and ``bmask`` is
    the static EX-datapath ``b`` operand (``imm & 0xFFFFFFFF``) for
    immediate forms, ``None`` when the operand comes from ``rB`` at run
    time.  ``lookup`` maps ``pc >> 2`` to the slot index (``-1`` for data
    words) when the text fits the dense table; otherwise it is ``None``
    and ``sparse`` maps each text address to its slot.  The NumPy
    metadata columns are indexed by slot and gathered per run
    (``np_halt`` marks the halt word, so the reconstruction classifies
    fetched wrong-path text without decoding it again); timing classes
    are interned in decode (address) order — consumers that need a
    canonical order re-intern (``compile_vector_run`` does so in
    first-encounter row-major order).

    The decode is table-driven: every column is a gather from the
    per-mnemonic rows of :data:`SPECS` plus array arithmetic on the
    immediates, and the slot tuples are zipped from those columns.
    ``key`` is the image's entry in the shared cache (``None`` for an
    image built outside it); ``built_at`` is the ``time.perf_counter()``
    reading when its decode started, so a caller can tell whether an
    image was decoded after a point in time (the streaming engine's
    ownership test).
    """

    __slots__ = (
        "key", "built_at", "addrs", "instrs", "slots", "lookup", "sparse",
        "class_names", "np_pc", "np_cls", "np_kind", "np_dest", "np_src",
        "np_mnem", "np_halt", "memory_proto", "iss_run", "crit_cache",
    )

    def __init__(self, program, key=None):
        self.key = key
        self.built_at = time.perf_counter()
        instructions = program.instructions
        # the cache key already holds the sorted text addresses
        addrs = list(key[2]) if key is not None else sorted(instructions)
        self.addrs = addrs
        self.instrs = list(map(instructions.__getitem__, addrs))
        (self.slots, pc, cls, self.np_kind, self.np_dest, self.np_src,
         self.np_mnem, self.np_halt) = _decode(addrs, self.instrs)
        self.np_pc = pc
        unaligned = np.flatnonzero(pc & 3)
        if len(unaligned):
            # fetches are word-aligned and the dense lookup keys on
            # ``pc >> 2``: such an entry would be retired in place of
            # the word it shares, so the image fails closed instead
            raise SimulationError(
                f"unaligned text entry at {addrs[unaligned[0]]:#010x}"
            )
        self.class_names = []
        self.np_cls = _intern(cls, self.class_names)

        count = len(addrs)
        if count and 0 <= addrs[0] and (addrs[-1] >> 2) < _MAX_DENSE_WORDS:
            # the highest address of each word wins, as in address order
            words = pc >> 2
            last = np.ones(count, dtype=bool)
            last[:-1] = words[1:] != words[:-1]
            lookup = np.full((addrs[-1] >> 2) + 1, -1, dtype=np.int64)
            lookup[words[last]] = np.flatnonzero(last)
            self.lookup = lookup.tolist()
            self.sparse = None
        else:
            self.lookup = None
            self.sparse = dict(zip(addrs, range(count)))
        self.memory_proto = Memory("dmem")
        program.load_into(self.memory_proto)
        self.iss_run = None       # the halted pass (IssData), once run
        self.crit_cache = {}      # EX criticality arrays (dta.compiled)


@dataclass
class IssData:
    """One architectural run in the columnar form ``vector.reconstruct``
    consumes.  ``class_names`` is owned by the receiver (victim/drain
    interning appends to it).

    The per-instruction objects are built on first read only: ``index``
    holds each retired instruction's slot in ``pool`` (the image's
    ``instrs`` followed by the words the run decoded on demand), and
    :attr:`instrs` and :attr:`retired` are gathered from them.
    """

    state: ArchState
    memory: Memory
    pcs: np.ndarray          # int64, retired program counters
    a_vals: np.ndarray       # uint64, rA operand values
    b_vals: np.ndarray       # uint64, effective EX b operand
    taken: np.ndarray        # bool, control-transfer outcome
    targets: np.ndarray      # int64, target when taken else 0
    cls: np.ndarray          # int64, timing-class ids (into class_names)
    kind: np.ndarray         # int64, KIND_CODE values
    dest: np.ndarray         # int64, written register or -1
    src: np.ndarray          # int64, source-register bit mask
    mnem: np.ndarray         # MNEMONIC_DTYPE, MNEMONIC_ID values
    store_words: set
    class_names: list
    image: DecodedImage      # the image the pass fetched from (clones)
    index: np.ndarray        # int64, each retired instruction's pool slot
    pool: list               # Instruction per slot
    _instrs: list = field(default=None, init=False, repr=False)
    _retired: list = field(default=None, init=False, repr=False)

    @property
    def instrs(self):
        """The :class:`~repro.isa.instruction.Instruction` of every
        retired slot, in retirement order."""
        if self._instrs is None:
            self._instrs = list(map(self.pool.__getitem__,
                                    self.index.tolist()))
        return self._instrs

    @property
    def retired(self):
        """``(pc, Instruction)`` per retired instruction."""
        if self._retired is None:
            self._retired = list(zip(self.pcs.tolist(), self.instrs))
        return self._retired


# -- the shared per-content image LRU ----------------------------------------

_images = OrderedDict()
_IMAGE_CAPACITY = 4096

_stats = {
    "decode_seconds": 0.0,
    "iss_seconds": 0.0,
    "images_built": 0,
    "image_hits": 0,
    "fast_runs": 0,
    "iss_hits": 0,
}

def _clone_data(data, program, image):
    """Fresh :class:`IssData` view of a cached architectural result.

    The ISS pass is a pure function of the program content (see
    :func:`collect`), so its result is cached on the image; each caller
    gets its own copies of the parts the downstream pipeline mutates or
    keeps (final memory, architectural state, the intern list the
    reconstruction appends to).  The immutable columns — retired arrays,
    instruction pool and index, store set — are shared read-only.  Each
    clone points at ``image``; the cached copy does not, so an image and
    its results form no reference cycle and are freed as soon as the
    cache lets go of them.
    """
    state = ArchState(entry=program.entry)
    state.regs = list(data.state.regs)
    state.flag = data.state.flag
    state.carry = data.state.carry
    state.pc = data.state.pc
    state.instret = data.state.instret
    return IssData(
        state=state,
        memory=data.memory.copy(),
        pcs=data.pcs,
        a_vals=data.a_vals,
        b_vals=data.b_vals,
        taken=data.taken,
        targets=data.targets,
        cls=data.cls,
        kind=data.kind,
        dest=data.dest,
        src=data.src,
        mnem=data.mnem,
        store_words=data.store_words,
        class_names=list(data.class_names),
        image=image,
        index=data.index,
        pool=data.pool,
    )


def stats():
    """Copy of the decode/execution counters (see :func:`reset_stats`)."""
    return dict(_stats)


def reset_stats():
    for key in _stats:
        _stats[key] = 0.0 if key.endswith("seconds") else 0


def clear_images():
    """Drop every cached image (tests / memory pressure)."""
    _images.clear()


def discard_image(image):
    """Evict one decoded image (no-op when it is no longer cached);
    returns whether an entry was dropped.  The streaming engine uses this
    to keep unbounded program streams at O(1) memory — a decoded image
    pins every instruction object plus the ISS result arrays for the
    program.  The image carries its cache key, so eviction does not
    re-derive it from the program."""
    if _images.get(image.key) is not image:
        return False
    del _images[image.key]
    return True


def _image_key(program, words=None):
    if words is None:
        words = HashedTuple(sorted(program.words.items()))
    return HashedTuple(
        (program.entry, words, tuple(sorted(program.instructions)))
    )


def image_for(program, words=None):
    """The shared :class:`DecodedImage` for ``program``, decoding at most
    once per program content.  ``words`` is ``program.words`` as a sorted
    item tuple, when the caller has already derived it for a key of its
    own (``get_compiled_trace`` has), so no key sorts the words twice."""
    key = _image_key(program, words)
    image = _images.get(key)
    if image is not None:
        _images.move_to_end(key)
        _stats["image_hits"] += 1
        return image
    start = time.perf_counter()
    with obs_span("iss.decode", program=program.name):
        image = DecodedImage(program, key)
    _stats["decode_seconds"] += time.perf_counter() - start
    _stats["images_built"] += 1
    _images[key] = image
    while len(_images) > _IMAGE_CAPACITY:
        _images.popitem(last=False)
    return image


# -- the dispatch-table step loop ---------------------------------------------


def collect(program, max_cycles, image=None):
    """The architectural pass of ``program`` within ``max_cycles`` steps,
    as :class:`IssData`; raises :class:`SimulationError` for every fault
    (see the module docstring).  ``image`` is the program's
    :func:`image_for` image when the caller already holds it.

    The step cap equals the cycle budget: the pipeline retires at most
    one instruction per cycle, so a pass overrunning ``max_cycles`` steps
    implies the pipeline would overrun ``max_cycles`` cycles too.

    The pass is deterministic, so the halted run is kept on the shared
    image with its step count (``state.instret``) and serves every later
    budget it fits: a program is stepped once per process however many
    budgets ask for it (characterisation simulates at
    ``gatesim.MAX_CYCLES``, a sweep at its own ``max_cycles``), and each
    caller gets cloned columns (:func:`_clone_data`).  A budget below the
    step count raises the budget error a fresh pass would, read off the
    cached program counters without stepping.
    """
    if image is None:
        image = image_for(program)
    run = image.iss_run
    if run is None:
        with obs_span("iss.collect", program=program.name):
            run = image.iss_run = _collect_impl(image, program, max_cycles)
    else:
        _stats["iss_hits"] += 1
        if max_cycles < run.state.instret:
            raise _overrun(max_cycles, int(run.pcs[max(max_cycles, 0)]))
    _stats["fast_runs"] += 1
    return _clone_data(run, program, image)


def _overrun(max_cycles, pc):
    return SimulationError(
        f"exceeded {max_cycles} cycles without halting (pc={pc:#010x})"
    )


def _misaligned(size, address):
    return SimulationError(f"misaligned {size}-byte access at {address:#010x}")


class _RunText:
    """The words one run fetches outside the image's dense text, decoded
    on demand the way the reference fetch does: sparse text first, then
    the run's current memory.  Decoded slots extend a per-run copy of the
    image's slot list (``slots``, copied on the first decode); the shared
    image is never written."""

    __slots__ = ("image", "memory", "slots", "index", "instrs")

    def __init__(self, image, memory):
        self.image = image
        self.memory = memory
        self.slots = image.slots
        self.index = {}           # address -> slot index past the image's
        self.instrs = []          # the decoded words, in ``index`` order

    def fetch(self, pc):
        """Slot index of the instruction fetched at ``pc``."""
        if pc & 3:
            raise SimulationError(f"misaligned fetch at {pc:#010x}")
        sparse = self.image.sparse
        index = sparse.get(pc) if sparse else None
        if index is None:
            index = self.index.get(pc)
        if index is None:
            word = self.memory.load_word(pc)
            try:
                instruction = decode(word)
            except EncodingError as err:
                raise SimulationError(
                    f"cannot decode word {word:#010x} at {pc:#010x}: {err}"
                ) from err
            if self.slots is self.image.slots:
                self.slots = list(self.slots)
            index = self.index[pc] = len(self.slots)
            self.slots.append(_decode([pc], [instruction])[0][0])
            self.instrs.append(instruction)
        return index


def _collect_impl(image, program, max_cycles):
    start = time.perf_counter()
    memory = image.memory_proto.copy()
    load = memory.load
    store = memory.store
    regs = [0] * 32
    flag = False
    carry = False
    pc = program.entry
    pending = 0
    in_ds = False
    steps = 0
    text = _RunText(image, memory)
    lookup = image.lookup or ()
    nwords = len(lookup)
    slots = image.slots
    retired_idx = []
    a_list = []
    b_list = []
    ctrl_rows = []            # (retired index, target when taken else -1)
    store_words = set()
    append_idx = retired_idx.append
    append_a = a_list.append
    append_b = b_list.append
    link = REG_LINK

    while True:
        if steps >= max_cycles:
            raise _overrun(max_cycles, pc)
        word = pc >> 2
        if pc & 3 or word >= nwords:
            index = -1
        else:
            index = lookup[word]
        if index < 0:
            index = text.fetch(pc)
            slots = text.slots
        slot = slots[index]
        if slot is None:
            raise SimulationError(
                f"unsupported instruction {image.instrs[index].mnemonic} "
                f"at {pc:#010x}"
            )
        op, rd, ra, rb, aux, aux2, bmask, is_ctrl = slot
        if in_ds and is_ctrl:
            raise SimulationError(
                f"control-transfer instruction in delay slot at {pc:#010x}"
            )
        a = regs[ra]
        b = regs[rb] if bmask is None else bmask
        append_idx(index)
        append_a(a)
        append_b(b)
        steps += 1

        if op == OP_ADDI:
            total = a + aux
            carry = total > _MASK
            if rd:
                regs[rd] = total & _MASK
        elif op == OP_ADD:
            total = a + b
            carry = total > _MASK
            if rd:
                regs[rd] = total & _MASK
        elif op == OP_SFI:
            lhs = a - 0x100000000 if aux & 8 and a & 0x80000000 else a
            cond = aux & 7
            if cond == 0:
                flag = lhs == aux2
            elif cond == 1:
                flag = lhs != aux2
            elif cond == 2:
                flag = lhs > aux2
            elif cond == 3:
                flag = lhs >= aux2
            elif cond == 4:
                flag = lhs < aux2
            else:
                flag = lhs <= aux2
        elif op == OP_SF:
            if aux & 8:
                lhs = a - 0x100000000 if a & 0x80000000 else a
                rhs = b - 0x100000000 if b & 0x80000000 else b
            else:
                lhs = a
                rhs = b
            cond = aux & 7
            if cond == 0:
                flag = lhs == rhs
            elif cond == 1:
                flag = lhs != rhs
            elif cond == 2:
                flag = lhs > rhs
            elif cond == 3:
                flag = lhs >= rhs
            elif cond == 4:
                flag = lhs < rhs
            else:
                flag = lhs <= rhs
        elif op == OP_BF:
            if flag:
                ctrl_rows.append((steps - 1, aux))
                pending = aux
                in_ds = True
            else:
                ctrl_rows.append((steps - 1, -1))
            pc += 4
            continue
        elif op == OP_BNF:
            if flag:
                ctrl_rows.append((steps - 1, -1))
            else:
                ctrl_rows.append((steps - 1, aux))
                pending = aux
                in_ds = True
            pc += 4
            continue
        elif op == OP_LWZ:
            addr = (a + aux) & _MASK
            if addr & 3:
                raise _misaligned(4, addr)
            if rd:
                regs[rd] = load(addr, 4)
        elif op == OP_SW:
            addr = (a + aux) & _MASK
            if addr & 3:
                raise _misaligned(4, addr)
            store(addr, b, 4)
            store_words.add(addr)
        elif op == OP_NOP:
            pass
        elif op == OP_HALT:
            break
        elif op == OP_J:
            ctrl_rows.append((steps - 1, aux))
            pending = aux
            in_ds = True
            pc += 4
            continue
        elif op == OP_JAL:
            ctrl_rows.append((steps - 1, aux))
            regs[link] = aux2
            pending = aux
            in_ds = True
            pc += 4
            continue
        elif op == OP_JR:
            if b & 3:
                raise _misaligned(4, b)
            ctrl_rows.append((steps - 1, b))
            pending = b
            in_ds = True
            pc += 4
            continue
        elif op == OP_JALR:
            if b & 3:
                raise _misaligned(4, b)
            ctrl_rows.append((steps - 1, b))
            regs[link] = aux2
            pending = b
            in_ds = True
            pc += 4
            continue
        elif op == OP_SUB:
            total = a - b
            carry = total < 0
            if rd:
                regs[rd] = total & _MASK
        elif op == OP_ADDC:
            total = a + b + (1 if carry else 0)
            carry = total > _MASK
            if rd:
                regs[rd] = total & _MASK
        elif op == OP_ANDI:
            if rd:
                regs[rd] = a & aux
        elif op == OP_AND:
            if rd:
                regs[rd] = a & b
        elif op == OP_ORI:
            if rd:
                regs[rd] = a | aux
        elif op == OP_OR:
            if rd:
                regs[rd] = a | b
        elif op == OP_XORI:
            if rd:
                regs[rd] = a ^ aux
        elif op == OP_XOR:
            if rd:
                regs[rd] = a ^ b
        elif op == OP_CMOV:
            if rd:
                regs[rd] = a if flag else b
        elif op == OP_SLLI:
            if rd:
                regs[rd] = (a << aux) & _MASK
        elif op == OP_SLL:
            if rd:
                regs[rd] = (a << (b & 0x1F)) & _MASK
        elif op == OP_SRLI:
            if rd:
                regs[rd] = a >> aux
        elif op == OP_SRL:
            if rd:
                regs[rd] = a >> (b & 0x1F)
        elif op == OP_SRAI:
            if rd:
                regs[rd] = (
                    ((a - 0x100000000 if a & 0x80000000 else a) >> aux)
                    & _MASK
                )
        elif op == OP_SRA:
            if rd:
                regs[rd] = (
                    ((a - 0x100000000 if a & 0x80000000 else a)
                     >> (b & 0x1F)) & _MASK
                )
        elif op == OP_RORI:
            if rd:
                regs[rd] = (
                    ((a >> aux) | (a << (32 - aux))) & _MASK if aux else a
                )
        elif op == OP_ROR:
            amount = b & 0x1F
            if rd:
                regs[rd] = (
                    ((a >> amount) | (a << (32 - amount))) & _MASK
                    if amount else a
                )
        elif op == OP_MULI:
            if rd:
                regs[rd] = (a * aux) & _MASK
        elif op == OP_MUL:
            if rd:
                regs[rd] = (a * b) & _MASK
        elif op == OP_DIV:
            if rd:
                if b == 0:
                    regs[rd] = _MASK
                else:
                    lhs = a - 0x100000000 if a & 0x80000000 else a
                    rhs = b - 0x100000000 if b & 0x80000000 else b
                    quotient = abs(lhs) // abs(rhs)
                    if (lhs < 0) != (rhs < 0):
                        quotient = -quotient
                    regs[rd] = quotient & _MASK
        elif op == OP_DIVU:
            if rd:
                regs[rd] = _MASK if b == 0 else a // b
        elif op == OP_MOVHI:
            if rd:
                regs[rd] = aux
        elif op == OP_EXTHS:
            if rd:
                half = a & 0xFFFF
                regs[rd] = (half - 0x10000 if half & 0x8000 else half) & _MASK
        elif op == OP_EXTBS:
            if rd:
                byte = a & 0xFF
                regs[rd] = (byte - 0x100 if byte & 0x80 else byte) & _MASK
        elif op == OP_EXTHZ:
            if rd:
                regs[rd] = a & 0xFFFF
        elif op == OP_EXTBZ:
            if rd:
                regs[rd] = a & 0xFF
        elif op == OP_FF1:
            if rd:
                regs[rd] = (a & -a).bit_length() if a else 0
        elif op == OP_LBZ:
            if rd:
                regs[rd] = load((a + aux) & _MASK, 1)
        elif op == OP_LBS:
            byte = load((a + aux) & _MASK, 1)
            if rd:
                regs[rd] = (byte - 0x100 if byte & 0x80 else byte) & _MASK
        elif op == OP_LHZ:
            addr = (a + aux) & _MASK
            if addr & 1:
                raise _misaligned(2, addr)
            if rd:
                regs[rd] = load(addr, 2)
        elif op == OP_LHS:
            addr = (a + aux) & _MASK
            if addr & 1:
                raise _misaligned(2, addr)
            half = load(addr, 2)
            if rd:
                regs[rd] = (half - 0x10000 if half & 0x8000 else half) & _MASK
        elif op == OP_SB:
            store((a + aux) & _MASK, b & 0xFF, 1)
            store_words.add(((a + aux) & _MASK) & ~3)
        elif op == OP_SH:
            addr = (a + aux) & _MASK
            if addr & 1:
                raise _misaligned(2, addr)
            store(addr, b & 0xFFFF, 2)
            store_words.add(addr & ~3)

        if in_ds:
            pc = pending
            in_ds = False
        else:
            pc += 4

    _stats["iss_seconds"] += time.perf_counter() - start
    return _package(
        image, text, program, memory, regs, flag, carry, pc,
        retired_idx, a_list, b_list, ctrl_rows, store_words,
    )


def _package(image, text, program, memory, regs, flag, carry, pc,
             retired_idx, a_list, b_list, ctrl_rows, store_words):
    count = len(retired_idx)
    index = np.array(retired_idx, dtype=np.int64)
    columns = (image.np_pc, image.np_cls, image.np_kind, image.np_dest,
               image.np_src, image.np_mnem)
    pool = image.instrs
    class_names = list(image.class_names)
    if text.instrs:
        # words decoded on demand: their columns follow the image's
        _, pc_col, cls, kind, dest, src, mnem, _ = _decode(list(text.index),
                                                           text.instrs)
        extra = (pc_col, _intern(cls, class_names), kind, dest, src, mnem)
        columns = [np.concatenate(pair) for pair in zip(columns, extra)]
        pool = pool + text.instrs
    pcs, cls, kind, dest, src, mnem = (column[index] for column in columns)
    taken = np.zeros(count, dtype=bool)
    targets = np.zeros(count, dtype=np.int64)
    if ctrl_rows:
        rows = np.array(ctrl_rows, dtype=np.int64)
        where = rows[:, 0]
        target = rows[:, 1]
        taken[where] = target >= 0
        targets[where] = np.maximum(target, 0)
    state = ArchState(entry=program.entry)
    state.regs = regs
    state.flag = flag
    state.carry = carry
    state.pc = pc
    state.instret = count
    return IssData(
        state=state,
        memory=memory,
        pcs=pcs,
        a_vals=np.array(a_list, dtype=np.uint64),
        b_vals=np.array(b_list, dtype=np.uint64),
        taken=taken,
        targets=targets,
        cls=cls,
        kind=kind,
        dest=dest,
        src=src,
        mnem=mnem,
        store_words=store_words,
        class_names=class_names,
        image=None,
        index=index,
        pool=pool,
    )
