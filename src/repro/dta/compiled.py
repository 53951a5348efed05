"""Compiled pipeline traces: simulate once, sweep many configurations.

Every policy/margin/generator sweep re-runs the same programs, yet the
pipeline occupancy — and therefore the per-cycle attribution and the
ground-truth excited delays — depends only on (program, design).  A
:class:`CompiledTrace` freezes that invariant part of an evaluation into
compact NumPy arrays:

- ``class_ids``: an ``(num_cycles, num_stages)`` integer matrix of interned
  timing-class ids (the :func:`~repro.dta.extraction.attribute_cycle`
  driver attribution of every stage group in every cycle), so LUT-style
  policies reduce to integer fancy-indexing into a class×stage table;
- ``delays``: an ``(num_cycles, num_stages)`` float matrix of ground-truth
  excited delays from the design's excitation model (computed lazily — a
  sweep that neither checks safety nor runs the genie never pays for it),
  so safety checking is one array comparison and the genie oracle is a
  row-wise max.

Compiled traces are cached per (program content, design operating point),
which is what makes the batch evaluation engine in
:mod:`repro.flow.evaluate` fast: one pipeline simulation and one
compilation serve every configuration of a sweep.
"""

from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.obs.trace import span as obs_span
from repro.sim.spec import DEFAULT_MAX_CYCLES, DEFAULT_SPEC, get_pipeline_spec
from repro.sim.trace import Stage
from repro.timing.profiles import BUBBLE_CLASS
from repro.utils.keys import HashedTuple

#: Number of canonical pipeline stage groups.  Matrices of the default
#: spec are exactly this wide; other specs carry ``spec.num_stages``
#: columns, one per stage, each mapped onto a canonical group.
NUM_STAGES = len(Stage)

#: Column indices [0..NUM_STAGES), used for fancy-indexing stage tables.
STAGE_COLUMNS = np.arange(NUM_STAGES)


def worst_per_cycle(stage_matrix):
    """Per-cycle worst delay and limiting stage of a ``(cycles, stages)``
    delay matrix.

    This is the genie-oracle reduction (paper Eq. 2 with perfect
    knowledge) of the DTA analyzers, which build their matrix from
    recovered event-log delays and report the limiting stage too.
    :meth:`CompiledTrace.cycle_max_delays` needs only the bound and takes
    the same row-wise max without the argmax.
    """
    return stage_matrix.max(axis=1), stage_matrix.argmax(axis=1)


@dataclass
class CompiledTrace:
    """One program's pipeline trace, compiled for array evaluation."""

    program_name: str
    num_cycles: int
    num_retired: int
    #: Interned timing-class names; row index of every class×stage table.
    class_names: tuple
    #: (num_cycles, NUM_STAGES) int32 matrix of class ids per stage group.
    class_ids: np.ndarray
    #: (num_cycles, NUM_STAGES) bool matrices of slot state.
    bubble: np.ndarray
    held: np.ndarray
    #: (num_cycles,) bool vectors of front-end state.
    stall: np.ndarray
    redirect: np.ndarray
    #: The underlying trace (compatibility path for per-record policies).
    #: ``None`` for traces rehydrated from the artifact store — those carry
    #: materialised :attr:`delays` instead and serve only vectorized
    #: policies.
    trace: object
    #: Excitation model used to materialise :attr:`delays` on demand
    #: (``None`` for store-rehydrated traces, whose delays are pre-baked).
    excitation: object
    #: ``(variant_value, voltage)`` the delays were computed at — extended
    #: with the pipeline-spec digest for non-default microarchitectures;
    #: lets the genie policy validate a trace without a live excitation
    #: model.
    operating_point: tuple = None
    #: Optional vectorized EX-cell builder ``f(active_cycles) -> delays``
    #: installed by :func:`compile_vector_run`; replaces the per-record
    #: replay loop with array math (bit-identical results).
    ex_replay: object = field(default=None, repr=False)
    #: The :class:`~repro.sim.spec.PipelineSpec` the trace was simulated
    #: under (``None`` means the default spec; column count and group
    #: mapping of every matrix follow it).
    spec: object = None
    #: The shared :class:`~repro.sim.predecode.DecodedImage` the trace
    #: was simulated from (``None`` unless vector-compiled); the
    #: streaming engine evicts it together with the trace.
    image: object = field(default=None, repr=False)
    _delays: np.ndarray = field(default=None, repr=False)
    _cycle_max: np.ndarray = field(default=None, repr=False)

    @property
    def num_classes(self):
        return len(self.class_names)

    @property
    def pipeline_spec(self):
        """Resolved spec (``None`` normalises to the default machine)."""
        return self.spec if self.spec is not None else DEFAULT_SPEC

    @property
    def ex_column(self):
        """Matrix column of the EX stage (``Stage.EX`` for the default)."""
        return self.pipeline_spec.ex_index

    @property
    def delays(self):
        """Ground-truth excited-delay matrix, materialised on first use.

        Fixed-delay groups (FE/DC/CTRL/WB and the two ADR paths) gather
        from the excitation model's scaled class tables; only the
        operand-dependent EX cells replay the per-record model.  The
        result is bit-identical to calling
        ``excitation.group_delay(record, stage)`` cell by cell.
        """
        if self._delays is None:
            if self.excitation is None:
                raise ValueError(
                    "compiled trace was rehydrated without a delay matrix "
                    "and carries no excitation model to compute one"
                )
            with obs_span("dta.delays", program=self.program_name):
                self._delays = self._compute_delays()
        return self._delays

    def _compute_delays(self, excitation=None, ex_cells=None):
        """The delay matrix from ``excitation`` (default: the trace's
        own model).  ``ex_cells``, a stored EX column, stands in for the
        EX replay: the store rebuilds only the fixed-delay columns."""
        spec = self.pipeline_spec
        ex = spec.ex_index
        excitation = excitation or self.excitation
        tables = excitation.group_tables(self.class_names)
        delays = np.empty((self.num_cycles, spec.num_stages), dtype=float)

        for index, group in enumerate(spec.group_of):
            stage = Stage(group)
            if stage in (Stage.ADR, Stage.EX):
                continue
            column = tables["stage"][stage][self.class_ids[:, index]]
            column = np.where(self.held[:, index], tables["hold"], column)
            # a bubble wins over a hold, as in ExcitationModel.group_delay
            column = np.where(
                self.bubble[:, index], tables["bubble"][stage], column
            )
            delays[:, index] = column

        # ADR: redirect path for taken transfers, sequential otherwise;
        # the EX occupant drives it, a stalled front end re-presents.
        adr = np.where(
            self.redirect,
            tables["adr_redirect"][self.class_ids[:, 0]],
            tables["adr_seq"],
        )
        adr = np.where(self.bubble[:, ex], tables["adr_seq"], adr)
        adr = np.where(self.stall, tables["hold"], adr)
        delays[:, 0] = adr

        if ex_cells is not None:
            delays[:, ex] = ex_cells
            return delays
        # EX: operand-dependent — replay the excitation model only where
        # an instruction actually computes this cycle.
        ex_column = np.where(
            self.bubble[:, ex],
            tables["bubble"][Stage.EX],
            np.where(self.held[:, ex], tables["hold"], 0.0),
        )
        delays[:, ex] = ex_column
        active = np.nonzero(
            ~(self.bubble[:, ex] | self.held[:, ex])
        )[0]
        if self.ex_replay is not None:
            delays[active, ex] = self.ex_replay(active)
        else:
            column_delay = excitation.column_delay
            records = self.trace.records
            for index in active:
                delays[index, ex] = column_delay(
                    records[index], ex, spec
                ).delay_ps
        return delays

    def cycle_max_delays(self):
        """Per-cycle minimum safe period (the genie-oracle bound).

        Computed once per trace and shared read-only: the genie policy
        returns it as its period vector and every safety check prefilters
        on it, for every configuration and every stream window.
        """
        if self._cycle_max is None:
            cycle_max = self.delays.max(axis=1)
            cycle_max.flags.writeable = False
            self._cycle_max = cycle_max
        return self._cycle_max

    def class_table(self, lut):
        """``(num_classes, num_stages)`` table of ``lut.entry(cls, stage)``.

        A gather from the LUT's dense matrix (:meth:`~repro.dta.lut.
        DelayLUT.dense`): one row per trace class, one column per spec
        stage filled from its canonical :class:`Stage` group, so the LUT
        never needs to know the spec.
        """
        index, matrix = lut.dense()
        rows = np.array(
            [index.get(cls, len(index)) for cls in self.class_names],
            dtype=np.intp,
        )
        return matrix[rows[:, None], self.pipeline_spec.group_of]

    def class_name_at(self, cycle, stage):
        """Driver class of one (cycle, stage) cell — for violation reports."""
        return self.class_names[self.class_ids[cycle, stage]]

    def vocab_ids(self, vocabulary):
        """The class-id matrix remapped onto a global class vocabulary.

        Trace-local ids depend on first-encounter interning order, so two
        traces of different programs number the same class differently;
        consumers that compare features *across* traces (the learned-policy
        extraction in :mod:`repro.ml.features`) remap onto one shared
        vocabulary instead.
        """
        index = {cls: i for i, cls in enumerate(vocabulary)}
        try:
            remap = np.array(
                [index[cls] for cls in self.class_names], dtype=np.int64
            )
        except KeyError as error:
            raise ValueError(
                f"timing class {error.args[0]!r} not in vocabulary"
            ) from None
        return remap[self.class_ids]


def _operating_point(excitation, spec):
    """Operating-point tuple of a compiled trace — two elements for the
    default machine (historical key shape), spec digest appended for any
    other microarchitecture."""
    base = (excitation.profile.variant.value, excitation.library.voltage)
    if spec.is_default:
        return base
    return base + (spec.digest,)


def compile_trace(trace, excitation, spec=None):
    """Compile one pipeline trace against one excitation model.

    The class attribution is the inlined equivalent of
    :func:`~repro.dta.extraction.attribute_cycle` (ADR keys on the EX
    occupant, ``None`` timing classes are bubbles); the per-slot state
    flags feed the vectorized delay-matrix construction.  ``spec`` is the
    pipeline spec the trace was simulated under and sets the column count.
    """
    spec = get_pipeline_spec(spec)
    num_columns = spec.num_stages
    num_cycles = trace.num_cycles
    class_ids = np.empty((num_cycles, num_columns), dtype=np.int32)
    bubble = np.empty((num_cycles, num_columns), dtype=bool)
    held = np.empty((num_cycles, num_columns), dtype=bool)
    stall = np.empty(num_cycles, dtype=bool)
    redirect = np.empty(num_cycles, dtype=bool)
    intern = {}
    names = []
    ex_index = spec.ex_index
    for index, record in enumerate(trace.records):
        slots = record.slots
        ex_view = slots[ex_index]
        for stage in range(num_columns):
            view = ex_view if stage == 0 else slots[stage]
            cls = view.timing_class
            if cls is None:
                cls = BUBBLE_CLASS
            cls_id = intern.get(cls)
            if cls_id is None:
                cls_id = intern[cls] = len(names)
                names.append(cls)
            class_ids[index, stage] = cls_id
            bubble[index, stage] = view.mnemonic is None
            held[index, stage] = view.held
        stall[index] = record.stall
        redirect[index] = record.redirect
    return CompiledTrace(
        program_name=trace.program_name,
        num_cycles=num_cycles,
        num_retired=trace.num_retired,
        class_names=tuple(names),
        class_ids=class_ids,
        bubble=bubble,
        held=held,
        stall=stall,
        redirect=redirect,
        trace=trace,
        excitation=excitation,
        operating_point=_operating_point(excitation, spec),
        spec=None if spec.is_default else spec,
    )


class _LazyTraceProxy:
    """Record-compatible stand-in for a vector-compiled trace.

    Vector runs keep per-cycle data as arrays; the full
    :class:`~repro.sim.trace.PipelineTrace` is only materialised when a
    record-oriented consumer (e.g. a policy without ``periods_for``)
    actually touches it.  Must not be ``None``: the store-switch eviction
    in :func:`set_trace_store` uses ``trace is None`` to mark rehydrated,
    context-bound entries, and vector-compiled traces are fully simulated.
    """

    def __init__(self, run):
        self._run = run

    def __getattr__(self, name):
        return getattr(self._run.trace, name)


def compile_vector_run(run, excitation):
    """Compile a :class:`~repro.sim.vector.VectorPipelineRun` directly.

    Builds the same matrices as :func:`compile_trace` — including the
    first-encounter interning order of the class names and the ADR
    driver-view substitution — without materialising a single cycle
    record, and installs a vectorized EX-cell replay so the lazy delay
    matrix never walks records either.
    """
    from repro.timing.excitation import ex_criticality_array
    from repro.utils.rounding import round3_array

    pspec = run.spec
    num_columns = pspec.num_stages
    ex_index = pspec.ex_index
    occupancy = run.stage_occupancy()
    num_cycles = run.num_cycles
    local_names = run.class_names
    bubble_code = len(local_names)
    slot_class = run.slot_class

    codes = np.empty((num_cycles, num_columns), dtype=np.int64)
    bubble = np.empty((num_cycles, num_columns), dtype=bool)
    held = np.empty((num_cycles, num_columns), dtype=bool)
    for stage in range(num_columns):
        occupant, stage_bubble, stage_held = occupancy[stage]
        codes[:, stage] = np.where(
            stage_bubble, bubble_code,
            slot_class[np.maximum(occupant, 0)],
        )
        bubble[:, stage] = stage_bubble
        held[:, stage] = stage_held
    # the ADR group is driven by the EX occupant (attribute_cycle)
    codes[:, 0] = codes[:, ex_index]
    bubble[:, 0] = bubble[:, ex_index]
    held[:, 0] = held[:, ex_index]

    # intern in first-encounter order over the row-major class matrix —
    # exactly the order compile_trace's per-record walk produces: one
    # unbuffered pass takes every code's first cell (a stable sort of
    # every cell, np.unique(..., return_index=True), is several times
    # slower on these few-code matrices)
    flat = codes.ravel()
    first = np.full(bubble_code + 1, flat.size)
    np.minimum.at(first, flat, np.arange(flat.size))
    unique = np.flatnonzero(first < flat.size)
    order = np.argsort(first[unique])
    remap = np.empty(bubble_code + 1, dtype=np.int32)
    remap[unique[order]] = np.arange(len(order), dtype=np.int32)
    class_ids = remap[codes]
    class_names = tuple(
        BUBBLE_CLASS if code == bubble_code else local_names[code]
        for code in unique[order].tolist()
    )

    profile = excitation.profile
    scale = excitation.library.delay_scale
    redirect = run.redirect

    def ex_replay(active):
        """Excited EX delays of the active cells, vectorized.

        Each non-bubble slot has exactly one non-held EX cycle, so active
        cells map 1:1 onto fetch-stream slots; draining slots carry zero
        operands, matching the scalar ``ex_operands=(None, None)`` path.
        """
        # criticality is architectural (operands + worst patterns), so it
        # is invariant across operating points and sweeps of the same
        # program — memoised on the shared decode image the run used
        image = run.image
        crit_key = (
            None if pspec.is_default else pspec.digest,
            run.div_latency, run.num_cycles, len(active),
            int(active[0]) if len(active) else -1,
            int(active[-1]) if len(active) else -1,
        )
        crit = image.crit_cache.get(crit_key)
        if crit is None:
            slots = run.ex_occ[active]
            crit = ex_criticality_array(
                run.slot_mnem[slots],
                run.slot_kind[slots],
                run.slot_a[slots],
                run.slot_b[slots],
                run.slot_pc[slots],
                redirect[active],
            )
            image.crit_cache[crit_key] = crit
        cls_rows = class_ids[active, ex_index]
        max_ps = np.empty(len(class_names))
        spread_ps = np.empty(len(class_names))
        for index, cls in enumerate(class_names):
            if cls == BUBBLE_CLASS:
                max_ps[index] = spread_ps[index] = 0.0
                continue
            spec = profile.ex_spec(cls)
            max_ps[index] = spec.max_ps
            spread_ps[index] = spec.spread_ps
        delay = max_ps[cls_rows] - spread_ps[cls_rows] * (1.0 - crit)
        return round3_array(delay * scale)

    return CompiledTrace(
        program_name=run.program.name,
        num_cycles=num_cycles,
        num_retired=run.num_retired,
        class_names=class_names,
        class_ids=class_ids,
        bubble=bubble,
        held=held,
        stall=run.stall.copy(),
        redirect=redirect.copy(),
        trace=_LazyTraceProxy(run),
        excitation=excitation,
        operating_point=_operating_point(excitation, pspec),
        spec=None if pspec.is_default else pspec,
        ex_replay=ex_replay,
        image=run.image,
    )


# -- per-(program, design) cache ---------------------------------------------

#: Maximum number of compiled traces kept alive (LRU).
CACHE_CAPACITY = 64

#: Total-cycle budget across cached traces: a handful of multi-million-cycle
#: traces must not pin gigabytes of records for the process lifetime.
CACHE_CYCLE_BUDGET = 2_000_000

_cache = OrderedDict()

#: Sum of ``num_cycles`` over :data:`_cache`, kept on every insert and
#: eviction so the budget check costs nothing per insert.
_cached_cycles = 0

#: Optional persistent artifact store (see :mod:`repro.lab.store`); when
#: attached, in-memory cache misses consult it before simulating and write
#: freshly compiled traces through to it.
_store = None

#: Number of pipeline simulations actually run by :func:`get_compiled_trace`
#: since process start (or the last :func:`reset_simulation_count`) — the
#: counter that proves a warm-store sweep re-simulated nothing.
_simulations = 0


def set_trace_store(store):
    """Attach a persistent trace store (``None`` detaches).

    The store only needs ``load_compiled_trace(program, design, max_cycles)``
    returning a :class:`CompiledTrace` or ``None``, and
    ``save_compiled_trace(compiled, program, design, max_cycles)``.
    Returns the previously attached store so callers can restore it.

    Switching stores evicts store-rehydrated entries (``trace is None``)
    from the in-memory cache: they belong to the detached store's
    context, and callers outside it must see fully simulated traces.
    """
    global _store
    previous = _store
    if store is not previous:
        for key in [k for k, v in _cache.items() if v.trace is None]:
            _evict(key)
    _store = store
    return previous


def simulation_count():
    """Pipeline simulations run through :func:`get_compiled_trace`."""
    return _simulations


def reset_simulation_count():
    global _simulations
    _simulations = 0


def _program_key(program):
    """Content key: programs are often re-assembled per sweep, so
    identity-based caching would always miss.  The full words tuple (not
    its hash) is the key, so distinct programs can never alias; it
    hashes once, here, for this key and the decode image's."""
    return (
        program.name,
        program.entry,
        HashedTuple(sorted(program.words.items())),
    )


def trace_key(program, design, max_cycles=DEFAULT_MAX_CYCLES):
    """The in-memory cache key of one compiled trace.  Deriving it sorts
    and hashes the program's words, so a caller that asks several
    questions about one program (the streaming engine: cached?, compile,
    evict) derives it once and passes it as ``key=``."""
    return HashedTuple(
        (_program_key(program), _design_key(design), max_cycles)
    )


def _design_key(design):
    """Operating point: the excitation model (and therefore the compiled
    delays) is fully determined by variant + supply voltage — plus the
    pipeline spec for non-default microarchitectures (the default keeps
    the historical two-tuple, so warm caches and stores stay valid)."""
    return design.operating_point


def get_compiled_trace(program, design, max_cycles=DEFAULT_MAX_CYCLES,
                       key=None):
    """Compiled trace of ``program`` on ``design``, cached by content
    (``key``: its :func:`trace_key`, when the caller already has it).

    Simulation runs at most once per (program, design operating point,
    cycle limit); every configuration of a sweep shares the result.

    Simulation runs on the two-phase vector engine
    (:mod:`repro.sim.vector`), imported only on a miss: rehydrating
    traces from the store needs no simulator.  The decode reuses the
    key's sorted words for the image key.
    """
    global _simulations

    if key is None:
        key = trace_key(program, design, max_cycles)
    compiled = _cache.get(key)
    if compiled is not None:
        _cache.move_to_end(key)
        return compiled
    compiled = None
    if _store is not None:
        compiled = _store.load_compiled_trace(program, design, max_cycles)
    if compiled is None:
        from repro.sim import predecode, vector

        spec = design.pipeline_spec
        with obs_span("dta.compile", program=program.name):
            image = predecode.image_for(program, words=key[0][2])
            run = vector.simulate(program, max_cycles=max_cycles, spec=spec,
                                  image=image)
            _simulations += 1
            compiled = compile_vector_run(run, design.excitation)
        if _store is not None:
            _store.save_compiled_trace(compiled, program, design, max_cycles)
    _insert_cached(key, compiled)
    return compiled


def _insert_cached(key, compiled):
    global _cached_cycles
    _cache[key] = compiled
    _cached_cycles += compiled.num_cycles
    while len(_cache) > CACHE_CAPACITY or (
        len(_cache) > 1 and _cached_cycles > CACHE_CYCLE_BUDGET
    ):
        _evict(next(iter(_cache)))


def _evict(key):
    """Drop one entry (no-op when absent); returns whether it was held."""
    global _cached_cycles
    compiled = _cache.pop(key, None)
    if compiled is None:
        return False
    _cached_cycles -= compiled.num_cycles
    return True


def clear_compiled_cache():
    """Drop every cached compiled trace (tests, memory pressure)."""
    global _cached_cycles
    _cache.clear()
    _cached_cycles = 0


def is_trace_cached(program, design, max_cycles=DEFAULT_MAX_CYCLES,
                    key=None):
    """Whether the in-memory LRU currently holds this compiled trace."""
    if key is None:
        key = trace_key(program, design, max_cycles)
    return key in _cache


def discard_compiled_trace(program, design, max_cycles=DEFAULT_MAX_CYCLES,
                           key=None):
    """Evict one compiled trace from the in-memory LRU (no-op when
    absent); returns whether an entry was dropped.

    The streaming engine uses this to keep unbounded program streams at
    O(1) memory: a stream of unique programs would otherwise pin up to
    the whole :data:`CACHE_CYCLE_BUDGET` of already-evaluated traces."""
    if key is None:
        key = trace_key(program, design, max_cycles)
    return _evict(key)
