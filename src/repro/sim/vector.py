"""Two-phase vectorized pipeline simulation: the one pipeline engine.

The machine is the in-order core described by a
:class:`~repro.sim.spec.PipelineSpec` (stage geometry, forwarding,
load-use penalty, mul/div EX latencies).  Walking it cycle by cycle —
building one :class:`~repro.sim.trace.StageView` per stage per clock —
is faithful but slow; this module produces the same trace (records,
retired stream and architectural state, held bit-identical to the
cycle-stepping reference in ``tests/oracle.py`` by
``tests/test_sim_equivalence.py`` and ``tests/test_pipeline_spec.py``)
in two phases:

1. **ISS pass** — one architectural run of the dispatch-table ISS
   (:func:`repro.sim.predecode.collect`, the package's only one) over the
   program's pre-decoded image, collecting per-instruction arrays:
   program counters, EX operand values (the effective datapath ``b``
   after the operand mux), branch outcomes and instruction metadata
   (timing class, hazard ports, divider membership).

2. **Array pass** — the cycle-accurate structure is reconstructed with
   NumPy.  The pipeline is rigid (the whole front end stalls as a unit, EX
   consumes one slot per advance), so the *fetch stream* — retired
   instructions, the squashed wrong-path words behind every taken
   transfer, and the short post-halt drain — fully determines every
   cycle.  EX entry cycles follow the recurrence
   ``e[f] = max(e[f-1] + L[f-1], r[f])``: EX residency ``L`` (mul/div
   latencies per the spec) and the interlock release ``r`` — the cycle
   the youngest in-flight writer of each source register leaves the
   spec's hazard window (:func:`_interlock_bubbles`).  The per-cycle
   stage occupancy, stall/redirect flags and held markers are then
   scatter/gather operations.

The reconstruction is exact only when fetched words are immutable over the
run, so a program that stores into a fetched address (self-modifying
code, wrong-path fetches into freshly written data) raises
:class:`~repro.sim.predecode.SimulationError` naming the address; ISS
errors propagate unchanged.

The cold path is columns-only: the reconstruction reads the fetched
wrong-path text's class, mnemonic and halt flag off the decoded image's
columns, and decodes a word in Python only when it lies outside the text
(a data word, the post-halt drain).  Consumers that only need arrays (the
compiled-trace engine, the characterisation flow) read the cycle/slot
arrays directly and never pay for Python objects: the per-slot
``Instruction`` objects (:attr:`VectorPipelineRun.slot_instr`), the
retired stream (:attr:`VectorPipelineRun.retired`) and the full
:class:`~repro.sim.trace.PipelineTrace` (:attr:`VectorPipelineRun.trace`)
are built on first read, for record-oriented callers.
"""

from itertools import chain

import numpy as np

from repro.isa.encoding import EncodingError, decode
from repro.isa.opcodes import KIND_CODE, MNEMONIC_ID, InstructionKind
from repro.obs.trace import span as obs_span
from repro.sim import predecode
from repro.sim.predecode import HALT_NOP_CODE, SimulationError
from repro.sim.spec import DEFAULT_MAX_CYCLES, get_pipeline_spec
from repro.sim.trace import (
    BUBBLE_VIEW,
    CycleRecord,
    PipelineTrace,
    StageView,
)

_DIV_CODE = KIND_CODE[InstructionKind.DIV]
_MUL_CODE = KIND_CODE[InstructionKind.MUL]
_LOAD_CODE = KIND_CODE[InstructionKind.LOAD]


class VectorPipelineRun:
    """Result of one vectorized pipeline simulation.

    Attributes come in two index spaces:

    - *slot arrays* (length ``num_slots``) describe the fetch stream in
      fetch order — ``seq`` numbers in the trace are exactly these indices;
    - *cycle arrays* (length ``num_cycles``) describe per-clock state;
      occupant arrays hold fetch-stream indices (``-1`` for bubbles that
      never had a fetch identity, e.g. startup and interlock bubbles).

    ``slot_squashed`` slots (wrong-path words killed by a taken transfer)
    carry their fetched identity — they are visible in the front columns
    until their branch resolves (``slot_squash_cycle``) and flow as
    bubbles afterwards; ``~slot_is_instr`` slots (undecodable wrong-path
    words past the halt) are bubbles everywhere.

    Python objects are built on first read only: :attr:`retired` from the
    ISS pass's instruction pool, :attr:`slot_instr` by one gather through
    ``slot_source`` (each slot's index into the ISS pool followed by the
    words the reconstruction decoded itself, ``-1`` for none).
    """

    def __init__(self, program, div_latency, data, spec=None):
        self.program = program
        self.div_latency = div_latency
        self.spec = get_pipeline_spec(spec)
        self.state = data.state
        self.memory = data.memory
        self.num_cycles = 0
        self.num_retired = len(data.pcs)
        self._iss = data
        self._decoded = []        # words decoded past the ISS pool
        self._slot_instr = None
        self._trace = None

    @property
    def retired(self):
        """``(pc, Instruction)`` per retired instruction."""
        return self._iss.retired

    @property
    def slot_instr(self):
        """Object array of each slot's ``Instruction`` (``None`` for
        bubbles that never decoded)."""
        if self._slot_instr is None:
            pool = self._iss.pool
            count = len(pool) + len(self._decoded)
            objects = np.fromiter(
                chain(pool, self._decoded, (None,)), dtype=object,
                count=count + 1,
            )
            self._slot_instr = objects[self.slot_source]
        return self._slot_instr

    # -- trace materialisation ----------------------------------------------

    @property
    def trace(self):
        """Full :class:`PipelineTrace`, built in bulk on first access."""
        if self._trace is None:
            self._trace = self._build_trace()
        return self._trace

    def _views_for_slots(self):
        """Per-slot StageViews (one plain, one held variant), built once."""
        plain = []
        held = []
        instrs = self.slot_instr
        pcs = self.slot_pc
        for index in range(self.num_slots):
            instruction = instrs[index]
            if instruction is None:
                plain.append(BUBBLE_VIEW)
                held.append(BUBBLE_VIEW)
                continue
            base = dict(
                mnemonic=instruction.mnemonic,
                timing_class=instruction.timing_class,
                pc=int(pcs[index]),
                seq=index,
            )
            plain.append(StageView(held=False, **base))
            held.append(StageView(held=True, **base))
        return plain, held

    def _build_trace(self):
        plain, held_views = self._views_for_slots()
        post_bubble = self.slot_post_bubble
        is_instr = self.slot_is_instr
        squash_cycle = self.slot_squash_cycle
        has_ops = self.slot_has_ops
        a_vals = self.slot_a
        b_vals = self.slot_b
        stall = self.stall
        redirect = self.redirect
        ex_occ = self.ex_occ
        ex_held = self.ex_held
        front = self.front_idx
        back = self.back_occ
        num_front = self.spec.num_front
        records = []
        for cycle in range(self.num_cycles):
            stalled = bool(stall[cycle])
            views = []

            adr_slot = int(front[0][cycle])
            views.append(held_views[adr_slot] if stalled else plain[adr_slot])

            for column in range(1, num_front):
                slot = int(front[column][cycle])
                if slot < 0 or not is_instr[slot] \
                        or squash_cycle[slot] <= cycle:
                    views.append(BUBBLE_VIEW)
                else:
                    views.append(held_views[slot] if stalled else plain[slot])

            ex_slot = int(ex_occ[cycle])
            operands = None
            if ex_slot < 0 or post_bubble[ex_slot]:
                views.append(BUBBLE_VIEW)
            else:
                views.append(
                    held_views[ex_slot] if ex_held[cycle] else plain[ex_slot]
                )
                if has_ops[ex_slot]:
                    operands = (int(a_vals[ex_slot]), int(b_vals[ex_slot]))
                else:
                    operands = (None, None)

            for occ in back:
                slot = int(occ[cycle])
                if slot < 0 or post_bubble[slot]:
                    views.append(BUBBLE_VIEW)
                else:
                    views.append(plain[slot])

            records.append(
                CycleRecord(
                    cycle=cycle,
                    slots=tuple(views),
                    ex_operands=operands,
                    redirect=bool(redirect[cycle]),
                    stall=stalled,
                )
            )
        trace = PipelineTrace(program_name=self.program.name)
        trace.records = records
        trace.retired = list(self.retired)
        return trace

    # -- array views consumed by the compiled-trace engine -------------------

    def stage_occupancy(self):
        """Per-column ``(occupant, bubble, held)`` cycle arrays.

        Keyed by column index (``Stage`` members resolve against the
        default spec's six columns — ``IntEnum`` keys hash as plain
        ints).  Occupants are fetch-stream indices (``-1`` for
        identity-less bubbles); ``bubble`` is the *displayed* bubble
        state (squashed and undecodable slots show as bubbles past the
        fetch column).  Column 0 holds the true fetch-stage occupant —
        callers that need the paper's driver mapping (ADR keyed on EX)
        substitute the EX column themselves.
        """
        post_bubble = self.slot_post_bubble
        occupancy = {}
        adr_bubble = ~self.slot_is_instr[self.front_idx[0]]
        occupancy[0] = (
            self.front_idx[0], adr_bubble, self.stall & ~adr_bubble
        )
        cycles = np.arange(self.num_cycles, dtype=np.int64)
        for column in range(1, self.spec.num_front):
            idx = self.front_idx[column]
            clipped = np.maximum(idx, 0)
            bubble = (
                (idx < 0)
                | ~self.slot_is_instr[clipped]
                | (self.slot_squash_cycle[clipped] <= cycles)
            )
            occupancy[column] = (idx, bubble, self.stall & ~bubble)
        ex = self.spec.ex_index
        ex_bubble = (self.ex_occ < 0) | post_bubble[np.maximum(self.ex_occ, 0)]
        occupancy[ex] = (self.ex_occ, ex_bubble, self.ex_held)
        false = np.zeros(self.num_cycles, dtype=bool)
        for offset, occ in enumerate(self.back_occ):
            bubble = (occ < 0) | post_bubble[np.maximum(occ, 0)]
            occupancy[ex + 1 + offset] = (occ, bubble, false)
        return occupancy


def simulate(program, div_latency=None, max_cycles=DEFAULT_MAX_CYCLES,
             spec=None, image=None):
    """Pipeline run of ``program`` on ``spec`` (a
    :class:`~repro.sim.spec.PipelineSpec`, preset name or ``None`` for the
    default machine); ``div_latency`` overrides the spec's divider, and
    ``image`` is the program's decoded image when the caller holds it
    (:func:`repro.sim.predecode.image_for`).

    Raises :class:`SimulationError` for an undecodable pre-halt
    wrong-path word, an exceeded cycle budget or a store into a fetched
    word; ISS errors propagate unchanged.
    """
    spec = get_pipeline_spec(spec)
    if div_latency is None:
        div_latency = spec.div_latency
    if div_latency < 1:
        raise ValueError("div_latency must be at least 1 cycle")
    with obs_span("sim.vector", program=program.name):
        data = predecode.collect(program, max_cycles, image=image)
        return reconstruct(program, div_latency, max_cycles, data, spec)


# -- phase 2: array reconstruction -------------------------------------------


def reconstruct(program, div_latency, max_cycles, data, spec):
    """Array pass: the pipeline run of an ISS pass's
    :class:`~repro.sim.predecode.IssData`
    (:func:`simulate` owns the argument checks)."""
    targets = data.targets
    store_words = data.store_words
    class_names = data.class_names

    num_front = spec.num_front
    num_back = spec.num_back
    squash = spec.squash_count
    mul_latency = spec.mul_latency

    num_retired = len(data.pcs)
    retired_cls = data.cls
    retired_kind = data.kind
    retired_dest = data.dest
    retired_src = data.src
    retired_pc = data.pcs
    retired_a = data.a_vals
    retired_b = data.b_vals
    taken = data.taken

    # -- fetch-stream layout: retired instructions in program order, plus
    # ``squash`` wrong-path words starting two positions after every taken
    # transfer (branch, delay slot, victims..., target, ...)
    taken_count = np.cumsum(taken)
    offsets = np.zeros(num_retired, dtype=np.int64)
    if num_retired > 2:
        offsets[2:] = squash * taken_count[:-2]
    stream_pos = np.arange(num_retired, dtype=np.int64) + offsets
    taken_idx = np.nonzero(taken)[0]                    # retired indices
    victim_of = np.repeat(taken_idx, squash)
    victim_slot = np.tile(np.arange(squash, dtype=np.int64),
                          len(taken_idx))
    victim_pos = stream_pos[victim_of] + 2 + victim_slot
    victim_pc = retired_pc[victim_of] + 8 + 4 * victim_slot

    num_main = num_retired + len(victim_of)
    halt_pos = int(stream_pos[-1])

    # slot arrays over the main stream
    slot_pc = np.zeros(num_main, dtype=np.int64)
    slot_cls = np.full(num_main, -1, dtype=np.int64)
    slot_kind = np.full(num_main, -1, dtype=np.int64)
    slot_dest = np.full(num_main, -1, dtype=np.int64)
    slot_src = np.zeros(num_main, dtype=np.int64)
    slot_a = np.zeros(num_main, dtype=np.uint64)
    slot_b = np.zeros(num_main, dtype=np.uint64)
    slot_taken = np.zeros(num_main, dtype=bool)
    slot_is_instr = np.zeros(num_main, dtype=bool)
    slot_squashed = np.zeros(num_main, dtype=bool)
    slot_has_ops = np.zeros(num_main, dtype=bool)
    slot_source = np.full(num_main, -1, dtype=np.int64)
    slot_mnem = np.full(num_main, -1, dtype=predecode.MNEMONIC_DTYPE)

    slot_pc[stream_pos] = retired_pc
    slot_cls[stream_pos] = retired_cls
    slot_kind[stream_pos] = retired_kind
    slot_dest[stream_pos] = retired_dest
    slot_src[stream_pos] = retired_src
    slot_a[stream_pos] = retired_a
    slot_b[stream_pos] = retired_b
    slot_taken[stream_pos] = taken
    slot_is_instr[stream_pos] = True
    slot_has_ops[stream_pos] = True
    slot_source[stream_pos] = data.index
    slot_mnem[stream_pos] = data.mnem

    # victims: fetched (and decoded) wrong-path words.  The guard below
    # ensures fetched words are immutable, so the initial image is what
    # the fetch stage decoded: a victim in the program text takes its
    # image slot's columns (its class is one of the image's, a prefix of
    # ``class_names``), any other word decodes here.  Decode failures:
    # past the first fetched halt word they are bubbles, before it they
    # are fatal.
    image = data.image
    fetched = set(retired_pc.tolist())
    decode_cache = {}
    decoded = []                # Instructions past the ISS pool, in order
    halt_fetch_pos = halt_pos   # may move earlier: wrong-path halt words
    if len(victim_of):
        slot_pc[victim_pos] = victim_pc
        slot_squashed[victim_pos] = True
        fetched.update(victim_pc.tolist())
        text_slot, in_text = _text_slots(image, victim_pc)
        text_slot = text_slot[in_text]
        text_pos = victim_pos[in_text]
        slot_is_instr[text_pos] = True
        slot_cls[text_pos] = image.np_cls[text_slot]
        slot_mnem[text_pos] = image.np_mnem[text_slot]
        slot_source[text_pos] = text_slot
        # victim_pos is increasing (stream order), which the running
        # halt-in-flight check relies on.  The first text halt joins it
        # up front: for an earlier victim ``position > halt_fetch_pos``
        # comes out the same with it or without it
        halts = text_pos[image.np_halt[text_slot]]
        if len(halts):
            halt_fetch_pos = min(halt_fetch_pos, int(halts[0]))
        other = ~in_text
        base = len(data.pool)
        for position, address in zip(
            victim_pos[other].tolist(), victim_pc[other].tolist()
        ):
            instruction = _decode_fetch(
                program, address, decode_cache,
                halt_in_flight=position > halt_fetch_pos,
            )
            if instruction is not None:
                slot_is_instr[position] = True
                slot_cls[position] = _intern_class(
                    instruction, class_names
                )
                slot_mnem[position] = MNEMONIC_ID[instruction.mnemonic]
                slot_source[position] = base + len(decoded)
                decoded.append(instruction)
            if _is_halt(instruction):
                halt_fetch_pos = min(halt_fetch_pos, position)

    # EX occupancy and entry cycles over the main stream:
    #   L — EX residency (div/mul latencies per the spec, 1 otherwise)
    #   b — interlock bubbles in front of the slot
    live = slot_is_instr & ~slot_squashed
    lat = np.ones(num_main, dtype=np.int64)
    lat[live & (slot_kind == _DIV_CODE)] = div_latency
    if mul_latency != 1:
        lat[live & (slot_kind == _MUL_CODE)] = mul_latency
    window, loads_only = _hazard_window(spec)
    bubbles = _interlock_bubbles(live, slot_kind, slot_dest, slot_src, lat,
                                 window, loads_only)
    entry = num_front + np.cumsum(lat) - lat + np.cumsum(bubbles)

    num_cycles = int(entry[halt_pos]) + num_back + 1
    if num_cycles > max_cycles:
        raise SimulationError(
            f"exceeded {max_cycles} cycles without halting "
            f"(pc={int(retired_pc[-1]):#010x})"
        )

    # -- post-halt drain: fetching continues sequentially (no redirects
    # execute past the halt) until the trace ends.  A handful of slots —
    # generated scalar-wise, including their stall contributions.
    tail = range(max(num_main - window, 0), num_main)
    drain = _generate_drain(
        program, decode_cache, fetched,
        continuation=_drain_continuation(
            stream_pos, squash, num_main, taken_idx, targets, retired_pc
        ),
        start_index=num_main,
        history=[
            (bool(live[k]), int(slot_kind[k]), int(slot_dest[k]),
             int(entry[k] + lat[k]))
            for k in tail
        ],
        window=window,
        loads_only=loads_only,
        stall_total=int(np.sum(lat - 1) + np.sum(bubbles)),
        num_cycles=num_cycles,
        div_latency=div_latency,
        mul_latency=mul_latency,
        class_names=class_names,
    )

    # stores into fetched words would make the reconstruction diverge from
    # fetch-time decoding: fail closed
    overlap = store_words & fetched
    if overlap:
        raise SimulationError(
            f"store into fetched word {min(overlap):#010x}: "
            "self-modifying fetch streams are not supported"
        )

    if drain.count:
        slot_pc = np.concatenate([slot_pc, drain.pc])
        slot_cls = np.concatenate([slot_cls, drain.cls])
        slot_kind = np.concatenate([slot_kind, drain.kind])
        slot_a = np.concatenate([slot_a, np.zeros(drain.count, np.uint64)])
        slot_b = np.concatenate([slot_b, np.zeros(drain.count, np.uint64)])
        slot_taken = np.concatenate(
            [slot_taken, np.zeros(drain.count, bool)]
        )
        slot_is_instr = np.concatenate([slot_is_instr, drain.is_instr])
        slot_squashed = np.concatenate(
            [slot_squashed, np.zeros(drain.count, bool)]
        )
        slot_has_ops = np.concatenate(
            [slot_has_ops, np.zeros(drain.count, bool)]
        )
        drain_source = np.arange(drain.count) + len(data.pool) + len(decoded)
        slot_source = np.concatenate([
            slot_source,
            np.where(drain.is_instr, drain_source, -1),
        ])
        decoded.extend(drain.instr)
        slot_mnem = np.concatenate([slot_mnem, drain.mnem])
        entry = np.concatenate([entry, drain.entry])
        lat = np.concatenate([lat, drain.lat])
        bubbles = np.concatenate([bubbles, drain.bubbles])

    num_slots = len(slot_pc)

    # -- EX timeline: one startup bubble per front stage, then per slot
    # its interlock bubbles followed by its (clipped) EX residency
    residency = np.clip(
        np.minimum(lat, num_cycles - entry), 0, None
    )
    segment_occ = np.empty(2 * num_slots, dtype=np.int64)
    segment_occ[0::2] = -1
    segment_occ[1::2] = np.arange(num_slots)
    segment_cnt = np.empty(2 * num_slots, dtype=np.int64)
    segment_cnt[0::2] = bubbles
    segment_cnt[1::2] = residency
    segment_interlock = np.zeros(2 * num_slots, dtype=bool)
    segment_interlock[0::2] = True

    body = num_cycles - num_front
    timeline_occ = np.repeat(segment_occ, segment_cnt)[:body]
    timeline_interlock = np.repeat(segment_interlock, segment_cnt)[:body]
    if len(timeline_occ) < body:
        raise RuntimeError("EX timeline underrun")   # engine bug guard
    ex_occ = np.concatenate(
        [np.full(num_front, -1, dtype=np.int64), timeline_occ]
    )
    ex_interlock = np.concatenate(
        [np.zeros(num_front, dtype=bool), timeline_interlock]
    )
    previous_occ = np.concatenate([[np.int64(-1)], ex_occ[:-1]])
    ex_held = (ex_occ == previous_occ) & (ex_occ >= 0)
    stall = ex_held | ex_interlock

    redirect = np.zeros(num_cycles, dtype=bool)
    # victims stay visible in the front columns until their branch
    # resolves in EX and squashes them (relevant when the spec squashes
    # more than one word: the older victim flows one column deep first)
    squash_cycle = np.full(num_slots, np.iinfo(np.int64).max,
                           dtype=np.int64)
    if len(taken_idx):
        redirect[entry[stream_pos[taken_idx]]] = True
        squash_cycle[victim_pos] = entry[stream_pos[victim_of]]

    # back columns: the "left EX" event ripples one column per cycle
    back_occ = [np.where(previous_occ != ex_occ, previous_occ, -1)]
    for _ in range(1, num_back):
        back_occ.append(
            np.concatenate([[np.int64(-1)], back_occ[-1][:-1]])
        )

    fetch_count = np.cumsum(~stall)
    front_idx = [fetch_count - 1 - column for column in range(num_front)]
    if int(front_idx[0][-1]) != num_slots - 1:
        raise RuntimeError("fetch accounting mismatch")   # engine bug guard

    run = VectorPipelineRun(program, div_latency, data, spec)
    run.image = image
    run.num_cycles = num_cycles
    run.num_slots = num_slots
    run.class_names = list(class_names)
    run.slot_pc = slot_pc
    run.slot_source = slot_source
    run._decoded = decoded
    run.slot_mnem = slot_mnem
    run.slot_class = slot_cls
    run.slot_kind = slot_kind
    run.slot_a = slot_a
    run.slot_b = slot_b
    run.slot_taken = slot_taken
    run.slot_is_instr = slot_is_instr
    run.slot_squashed = slot_squashed
    run.slot_has_ops = slot_has_ops
    run.slot_post_bubble = ~slot_is_instr | slot_squashed
    run.slot_squash_cycle = squash_cycle
    run.stall = stall
    run.redirect = redirect
    run.ex_occ = ex_occ
    run.ex_held = ex_held
    run.front_idx = front_idx
    run.back_occ = back_occ
    return run


def _text_slots(image, addresses):
    """``(slot, in_text)``: each address's slot in ``image`` (sorted,
    word-aligned text addresses) and whether the program text holds it
    with a mnemonic of the decode table (one outside it has no class
    column and goes through :func:`_decode_fetch` and ``_intern_class``)."""
    text_pc = image.np_pc
    if not len(text_pc):
        return (np.zeros(len(addresses), dtype=np.int64),
                np.zeros(len(addresses), dtype=bool))
    slot = np.minimum(np.searchsorted(text_pc, addresses), len(text_pc) - 1)
    in_text = (text_pc[slot] == addresses) & (image.np_cls[slot] >= 0)
    return slot, in_text


def _is_halt(instruction):
    return (
        instruction is not None
        and instruction.mnemonic == "l.nop"
        and instruction.imm == HALT_NOP_CODE
    )


def _intern_class(instruction, class_names):
    cls = instruction.timing_class
    try:
        return class_names.index(cls)
    except ValueError:
        class_names.append(cls)
        return len(class_names) - 1


def _decode_fetch(program, address, decode_cache, halt_in_flight):
    """Fetch-time decode of a wrong-path/drain word from the initial image.

    Program text wins, other words decode from memory (which the
    store-overlap guard pins to the initial image); failures are bubbles
    once a halt word has been fetched, fatal before that.
    """
    if address in decode_cache:
        return decode_cache[address]
    instruction = program.instructions.get(address)
    if instruction is None:
        word = program.words.get(address, 0)
        try:
            instruction = decode(word)
        except EncodingError as error:
            if not halt_in_flight:
                raise SimulationError(
                    f"cannot decode fetched word {word:#010x} at "
                    f"{address:#010x}: {error}"
                ) from error
            instruction = None
    decode_cache[address] = instruction
    return instruction


def _drain_continuation(stream_pos, squash, num_main, taken_idx, targets,
                        retired_pc):
    """First post-halt fetch address: the last redirect's target when the
    stream ends right behind the last taken transfer's delay slot (and
    its squashed victims, when the spec fetches any), sequential after
    the halt otherwise."""
    if len(taken_idx):
        last_taken = int(taken_idx[-1])
        if int(stream_pos[last_taken]) + 1 + squash == num_main - 1:
            return int(targets[last_taken])
    return int(retired_pc[-1]) + 4


def _hazard_window(spec):
    """``(window, loads_only)`` of the spec's front-end interlock.

    A consumer waiting at the last front stage stalls while the youngest
    in-flight writer of one of its source registers sits in the first
    ``window`` stages from EX on, so the writer releases it ``window``
    cycles after its last EX cycle.  With forwarding only loads stall,
    for ``load_use_penalty`` stages (at most the back stages); without
    it every writer stalls until it reaches write-back.
    """
    if spec.forwarding:
        return min(spec.load_use_penalty, spec.num_back), True
    return spec.num_back, False


def _interlock_bubbles(live, kind, dest, src, lat, window, loads_only):
    """Interlock bubbles ``b[c]`` in front of every main-stream slot.

    Slot ``c`` enters EX at ``e[c] = max(e[c-1] + L[c-1], r[c])`` with
    ``r[c] = e[p] + L[p] + window`` over the youngest live writer ``p``
    of each source register (r0 excluded) that stalls consumers; a
    younger non-stalling writer of the same register decides instead.
    EX is serial, so a writer more than ``window`` slots back has left
    the window before ``c`` could enter: only consumers with a writer
    within ``window`` slots can stall.  ``b[c] = e[c] - (e[c-1] +
    L[c-1])`` then depends only on the residencies and bubbles of the
    slots between ``p`` and ``c`` — candidates with no other candidate
    in between are settled in bulk, the rest in one pass in slot order.
    """
    count = len(live)
    bubbles = np.zeros(count, dtype=np.int64)
    writer = live & (dest > 0)
    stalls = writer & (kind == _LOAD_CODE) if loads_only else writer
    before = np.concatenate([[0], np.cumsum(lat)])   # sum of lat[:k]
    consumers, producers, needs = [], [], []
    for distance in range(1, min(window, count - 1) + 1):
        producer_dest = dest[:count - distance]
        hit = (
            live[distance:] & stalls[:count - distance]
            & ((src[distance:] >> np.maximum(producer_dest, 0)) & 1)
            .astype(bool)
        )
        for between in range(1, distance):
            hit &= ~(
                writer[distance - between:count - between]
                & (dest[distance - between:count - between]
                   == producer_dest)
            )
        consumer = np.nonzero(hit)[0] + distance
        # bubbles still needed when the slots in between stalled nothing
        need = window - (before[consumer] - before[consumer - distance + 1])
        keep = need > 0
        consumers.append(consumer[keep])
        producers.append(consumer[keep] - distance)
        needs.append(need[keep])
    if not consumers:
        return bubbles
    consumer = np.concatenate(consumers)
    producer = np.concatenate(producers)
    need = np.concatenate(needs)
    # sorted distinct consumers (a plain np.unique would import numpy.ma)
    candidates = np.sort(consumer)
    distinct = np.ones(len(candidates), dtype=bool)
    distinct[1:] = candidates[1:] != candidates[:-1]
    candidates = candidates[distinct]
    chained = (
        np.searchsorted(candidates, consumer, "left")
        > np.searchsorted(candidates, producer, "right")
    )
    np.maximum.at(bubbles, consumer[~chained], need[~chained])
    if chained.any():
        settled = dict(zip(candidates.tolist(),
                           bubbles[candidates].tolist()))
        order = np.argsort(consumer[chained], kind="stable")
        for c, p, wait in zip(consumer[chained][order].tolist(),
                              producer[chained][order].tolist(),
                              need[chained][order].tolist()):
            for k in range(p + 1, c):
                wait -= settled.get(k, 0)
            if wait > settled[c]:
                settled[c] = wait
                bubbles[c] = wait
    return bubbles


def _release_cycle(sources, history, window, loads_only):
    """Scalar twin of :func:`_interlock_bubbles` for one drain consumer:
    the first cycle its source registers allow it into EX.  ``history``
    holds ``(live, kind, dest, leave)`` of the preceding slots, oldest
    first, ``leave`` being the cycle after the slot's last EX cycle."""
    release = 0
    decided = set()
    for live, kind, dest, leave in reversed(history):
        if not live or dest <= 0 or dest in decided:
            continue
        if dest in sources and (not loads_only or kind == _LOAD_CODE):
            release = max(release, leave + window)
        decided.add(dest)
    return release


class _Drain:
    def __init__(self):
        self.pc, self.cls, self.kind, self.mnem = [], [], [], []
        self.is_instr, self.instr = [], []
        self.entry, self.lat, self.bubbles = [], [], []
        self.count = 0

    def finalize(self):
        self.pc = np.array(self.pc, dtype=np.int64)
        self.cls = np.array(self.cls, dtype=np.int64)
        self.kind = np.array(self.kind, dtype=np.int64)
        self.mnem = np.array(self.mnem, dtype=predecode.MNEMONIC_DTYPE)
        self.is_instr = np.array(self.is_instr, dtype=bool)
        self.entry = np.array(self.entry, dtype=np.int64)
        self.lat = np.array(self.lat, dtype=np.int64)
        self.bubbles = np.array(self.bubbles, dtype=np.int64)
        return self


def _generate_drain(program, decode_cache, fetched, continuation,
                    start_index, history, window, loads_only, stall_total,
                    num_cycles, div_latency, mul_latency, class_names):
    """Scalar tail: the few post-halt slots still fetched before the trace
    ends.  One slot is fetched per non-stall cycle, so slot ``k`` exists
    iff ``num_cycles - stall_total >= k + 1``; each appended slot may add
    its own stalls (drained instructions still interlock, and drain
    multi-cycle EX ops never finish and stall to the end).  ``history``
    is the main stream's last ``window`` slots (see
    :func:`_release_cycle`)."""
    drain = _Drain()
    address = continuation
    index = start_index
    entry_next = history[-1][3]
    while num_cycles - stall_total >= index + 1:
        instruction = _decode_fetch(
            program, address, decode_cache, halt_in_flight=True
        )
        fetched.add(address)
        live = instruction is not None
        kind = KIND_CODE[instruction.kind] if live else -1
        is_multi = live and (
            (kind == _DIV_CODE and div_latency > 1)
            or (kind == _MUL_CODE and mul_latency > 1)
        )
        entry_here = entry_next
        if live:
            entry_here = max(entry_here, _release_cycle(
                instruction.source_registers(), history, window, loads_only
            ))
        bubbles = entry_here - entry_next
        # interlock bubbles occupy cycles entry_here - bubbles .. - 1
        stall_total += min(bubbles,
                           max(num_cycles - entry_here + bubbles, 0))
        if is_multi:
            # a draining multi-cycle op is never processed, so it stays
            # "busy" (ex_remaining == -1) and stalls the machine to the end
            if entry_here <= num_cycles - 2:
                stall_total += (num_cycles - 1) - entry_here
            lat_here = max(num_cycles - entry_here, 1)
        else:
            lat_here = 1

        drain.pc.append(address)
        drain.instr.append(instruction)
        drain.is_instr.append(live)
        drain.cls.append(
            _intern_class(instruction, class_names) if live else -1
        )
        drain.kind.append(kind)
        drain.mnem.append(MNEMONIC_ID[instruction.mnemonic] if live else -1)
        drain.entry.append(entry_here)
        drain.lat.append(lat_here)
        drain.bubbles.append(bubbles)
        drain.count += 1

        dest = instruction.destination_register() if live else None
        history = (history + [
            (live, kind, -1 if dest is None else dest,
             entry_here + lat_here)
        ])[-window:]
        entry_next = entry_here + lat_here
        address += 4
        index += 1
    return drain.finalize()
