"""Value-dependent path excitation model.

This module answers the question the paper answers with SDF-annotated
gate-level simulation: *given what is in flight in each pipeline stage in
this cycle, what is the worst data-arrival delay in each endpoint group?*

Model (documented simplifications, cf. ARCHITECTURE.md, "Model
substitutions"):

- **EX group** delays are strongly instruction- and operand-dependent:
  ``delay = max - spread * (1 - criticality)`` where ``criticality`` is 1.0
  for the class's worst-case operand pattern (e.g. all-ones multiplier
  inputs exercising the full carry tree) and otherwise a deterministic
  value hash in ``[0, 0.97]``.  The same operands at the same program
  location always excite the same paths, as in real hardware.
- **ADR group** (next-pc logic into the instruction-memory address
  register) has two fixed path depths: the sequential increment and the
  redirect path from EX, excited by taken control transfers.  The group is
  *driven* by the EX-stage instruction (see :func:`driver_view`).
- **FE/DC/CTRL/WB groups** are modelled with fixed per-class worst-case
  delays: their logic cones are shallow and data dependence is second
  order.  (This collapses the paper's Fig. 7 non-EX histograms to spikes;
  the EX distributions — where the paper's analysis lives — are preserved.)
- Stages holding **bubbles** have a fixed small delay; **held** stages
  (stall, inputs stable) see no input events and get the hold delay.

The model guarantees ``excited delay <= profile.stage_spec(...).max_ps``
for every cycle, which is the physical invariant the predictive clocking
scheme relies on.
"""

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.isa.opcodes import (
    KIND_CODE,
    MNEMONIC_ID,
    MNEMONICS,
    SPECS,
    InstructionKind,
)
from repro.sim.trace import Stage
from repro.timing.library import reference_library
from repro.timing.profiles import BUBBLE_CLASS
from repro.utils.bitops import WORD_MASK
from repro.utils.rng import hash_to_unit_float

#: Criticality ceiling of non-worst-pattern operands: worst-case patterns
#: are strictly the maximum, so a characterisation that covers them bounds
#: every delay the evaluation can encounter.
HASH_CRITICALITY_CEILING = 0.97


@dataclass(frozen=True)
class ExcitedDelay:
    """Sampled worst data arrival of one endpoint group in one cycle."""

    delay_ps: float
    driver_class: str          # timing class, or BUBBLE_CLASS
    stage: Stage
    redirect: bool = False
    held: bool = False


def driver_view(record, stage):
    """The stage view whose instruction *drives* the endpoint group.

    All groups are driven by their own occupant except ``ADR``: the next-pc
    logic (sequential increment or branch-target redirect) is controlled by
    the EX-stage instruction, so the ADR group's delay — and its LUT
    attribution — keys on the EX occupant.  This mapping is shared by the
    DTA extraction and the clock controller, which makes the prediction
    consistent with the measurement (see ARCHITECTURE.md, "Model
    substitutions").
    """
    if stage == Stage.ADR:
        return record.view(Stage.EX)
    return record.view(stage)


def _kind_of_mnemonic(mnemonic):
    return SPECS[mnemonic].kind


def is_worst_pattern(mnemonic, a, b, taken=False):
    """True when the operands excite the class's longest path.

    The directed characterisation generator emits these patterns for every
    class so that the extracted LUT converges to the true worst case
    (paper Sec. II-B: "directed semi-random test generation").
    """
    kind = _kind_of_mnemonic(mnemonic)
    if kind == InstructionKind.NOP:
        return True   # constant datapath activity
    if kind in (InstructionKind.JUMP, InstructionKind.JUMP_REG):
        return True   # always-taken transfers exercise the full target path
    if kind == InstructionKind.BRANCH:
        return taken
    if kind in (InstructionKind.ALU, InstructionKind.SETFLAG,
                InstructionKind.MUL):
        return a == WORD_MASK and b == WORD_MASK
    if kind == InstructionKind.DIV:
        return a == WORD_MASK and b == 1
    if kind == InstructionKind.SHIFT:
        return a == WORD_MASK
    if kind in (InstructionKind.LOAD, InstructionKind.STORE):
        return (a & 0xFFFF_FFF0) == 0xFFFF_FFF0
    if kind == InstructionKind.MOVE:
        if mnemonic == "l.movhi":
            return b == 0xFFFF       # effective b operand is the immediate
        return a == WORD_MASK
    raise AssertionError(f"unhandled kind {kind}")


def ex_criticality(mnemonic, a, b, pc, taken=False):
    """Criticality in [0, 1] of the EX-stage excitation for these operands."""
    if a is None or b is None:
        a, b = 0, 0
    if is_worst_pattern(mnemonic, a, b, taken=taken):
        return 1.0
    return HASH_CRITICALITY_CEILING * hash_to_unit_float(
        "ex", mnemonic, a, b, pc
    )


#: Kind-code groups for the vectorized worst-pattern test (one entry per
#: branch of :func:`is_worst_pattern`).
_ALWAYS_WORST_CODES = (
    KIND_CODE[InstructionKind.NOP],
    KIND_CODE[InstructionKind.JUMP],
    KIND_CODE[InstructionKind.JUMP_REG],
)
_ALU_LIKE_CODES = (
    KIND_CODE[InstructionKind.ALU],
    KIND_CODE[InstructionKind.SETFLAG],
    KIND_CODE[InstructionKind.MUL],
)
_MEM_CODES = (
    KIND_CODE[InstructionKind.LOAD],
    KIND_CODE[InstructionKind.STORE],
)
_WORD = np.uint64(0xFFFFFFFF)
_MOVHI_ID = MNEMONIC_ID["l.movhi"]

#: Divisor of :func:`~repro.utils.rng.hash_to_unit_float`, replicated for
#: the inlined vector loop below.
_TWO_64 = float(1 << 64)

#: Cross-call memo of non-worst-pattern criticalities (key string →
#: value); cleared wholesale when it outgrows the cap.
_EX_HASH_MEMO = {}
_EX_HASH_MEMO_CAP = 1 << 18


def ex_criticality_array(mnemonic_ids, kinds, a, b, pcs, taken):
    """Vectorized :func:`ex_criticality` over per-occurrence arrays.

    ``mnemonic_ids`` holds :data:`~repro.isa.opcodes.MNEMONIC_ID` values,
    ``kinds`` the matching :data:`~repro.isa.opcodes.KIND_CODE` integers;
    ``a``/``b`` are the recorded 32-bit EX operand values with ``None``
    already replaced by zero (the scalar path's convention for draining
    slots).  The worst-pattern test is pure array comparisons; only the
    non-worst occurrences hash, once per distinct ``(mnemonic, a, b, pc)``
    row (one ``lexsort`` finds them) — the same dynamic operand pattern
    always excites the same paths, so loops collapse.
    """
    mnemonic_ids = np.asarray(mnemonic_ids, dtype=np.int64)
    kinds = np.asarray(kinds)
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    taken = np.asarray(taken, dtype=bool)

    worst = np.isin(kinds, _ALWAYS_WORST_CODES)
    worst |= (kinds == KIND_CODE[InstructionKind.BRANCH]) & taken
    worst |= np.isin(kinds, _ALU_LIKE_CODES) & (a == _WORD) & (b == _WORD)
    worst |= (
        (kinds == KIND_CODE[InstructionKind.DIV])
        & (a == _WORD) & (b == np.uint64(1))
    )
    worst |= (kinds == KIND_CODE[InstructionKind.SHIFT]) & (a == _WORD)
    worst |= (
        np.isin(kinds, _MEM_CODES)
        & ((a & np.uint64(0xFFFF_FFF0)) == np.uint64(0xFFFF_FFF0))
    )
    move = kinds == KIND_CODE[InstructionKind.MOVE]
    if move.any():
        worst |= move & np.where(
            mnemonic_ids == _MOVHI_ID, b == np.uint64(0xFFFF), a == _WORD
        )

    crit = np.ones(len(kinds), dtype=float)
    nonworst = np.flatnonzero(~worst)
    if len(nonworst):
        # Inlined, memoised hash_to_unit_float("ex", m, a, b, pc): the
        # blake2b digest of the exact same key string, so values are
        # bit-identical to the scalar path.  The memo is module-global —
        # the same dynamic operand pattern recurs across characterisation
        # and every sweep config of the same program.
        ids = mnemonic_ids[nonworst]
        operands = (a[nonworst] << np.uint64(32)) | b[nonworst]
        pcs = np.asarray(pcs, dtype=np.int64)[nonworst]
        order = np.lexsort((pcs, operands, ids))
        ids, operands, pcs = ids[order], operands[order], pcs[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (
            (ids[1:] != ids[:-1]) | (operands[1:] != operands[:-1])
            | (pcs[1:] != pcs[:-1])
        )
        inverse = np.empty(len(order), dtype=np.int64)
        inverse[order] = np.cumsum(first) - 1
        rows = zip(
            ids[first].tolist(),
            (operands[first] >> np.uint64(32)).tolist(),
            (operands[first] & _WORD).tolist(),
            pcs[first].tolist(),
        )
        memo = _EX_HASH_MEMO
        if len(memo) > _EX_HASH_MEMO_CAP:
            memo.clear()
        blake = hashlib.blake2b
        from_bytes = int.from_bytes
        names = MNEMONICS
        values = np.empty(int(first.sum()), dtype=float)
        for out, (mnemonic, a_int, b_int, pc) in enumerate(rows):
            text = f"ex|{names[mnemonic]}|{a_int}|{b_int}|{pc}"
            value = memo.get(text)
            if value is None:
                digest = blake(text.encode("utf-8"), digest_size=8).digest()
                value = HASH_CRITICALITY_CEILING * (
                    from_bytes(digest, "little") / _TWO_64
                )
                memo[text] = value
            values[out] = value
        crit[nonworst] = values[inverse]
    return crit


#: Groups with a fixed per-class delay (tables in :meth:`ExcitationModel.
#: group_tables`); ADR and EX are computed per cycle.
_FIXED_STAGES = (Stage.FE, Stage.DC, Stage.CTRL, Stage.WB)


class ExcitationModel:
    """Samples excited endpoint-group delays for pipeline cycle records.

    Parameters
    ----------
    profile:
        Ground-truth :class:`~repro.timing.profiles.DelayProfile`.
    library:
        Operating point; delays are scaled from the 0.70 V reference.
    """

    def __init__(self, profile, library=None):
        self.profile = profile
        self.library = library if library is not None else reference_library()
        self._class_rows = {}     # group_tables memo: class -> scaled row

    def _scale(self, delay_ps):
        return round(self.library.scale_delay(delay_ps), 3)

    def group_delay(self, record, stage, view=None):
        """Excited delay of one endpoint group in one cycle.

        ``view`` overrides the default-layout :func:`driver_view` slot
        lookup — the spec-aware :meth:`column_delay` passes the column's
        occupant explicitly for machines whose stage indices differ from
        the canonical six-column layout.
        """
        if view is None:
            view = driver_view(record, stage)

        if stage == Stage.ADR:
            return self._adr_delay(record, view)
        if view.is_bubble:
            return ExcitedDelay(
                delay_ps=self._scale(self.profile.bubble_delays[stage]),
                driver_class=BUBBLE_CLASS,
                stage=stage,
            )
        if view.held:
            return ExcitedDelay(
                delay_ps=self._scale(self.profile.hold_delay_ps),
                driver_class=view.timing_class,
                stage=stage,
                held=True,
            )
        if stage == Stage.EX:
            return self._ex_delay(record, view)

        spec = self.profile.stage_spec(view.timing_class, stage)
        return ExcitedDelay(
            delay_ps=self._scale(spec.max_ps),
            driver_class=view.timing_class,
            stage=stage,
        )

    def _adr_delay(self, record, ex_view):
        """ADR group: driven by the EX occupant (redirect) or the sequential
        increment.  A held front end re-presents a stable address."""
        if record.stall:
            driver = (
                ex_view.timing_class
                if not ex_view.is_bubble else BUBBLE_CLASS
            )
            return ExcitedDelay(
                delay_ps=self._scale(self.profile.hold_delay_ps),
                driver_class=driver,
                stage=Stage.ADR,
                held=True,
            )
        if ex_view.is_bubble:
            return ExcitedDelay(
                delay_ps=self._scale(self.profile.adr_seq.max_ps),
                driver_class=BUBBLE_CLASS,
                stage=Stage.ADR,
            )
        spec = self.profile.adr_spec(ex_view.timing_class, record.redirect)
        return ExcitedDelay(
            delay_ps=self._scale(spec.max_ps),
            driver_class=ex_view.timing_class,
            stage=Stage.ADR,
            redirect=record.redirect,
        )

    def _ex_delay(self, record, view):
        spec = self.profile.ex_spec(view.timing_class)
        a, b = record.ex_operands if record.ex_operands else (0, 0)
        crit = ex_criticality(
            view.mnemonic, a, b, view.pc, taken=record.redirect
        )
        delay = spec.max_ps - spec.spread_ps * (1.0 - crit)
        return ExcitedDelay(
            delay_ps=self._scale(delay),
            driver_class=view.timing_class,
            stage=Stage.EX,
        )

    def group_tables(self, class_names):
        """Scaled per-class worst-case delay tables for compiled traces.

        Returns the ingredients of the vectorized ground-truth delay
        matrix (:attr:`repro.dta.compiled.CompiledTrace.delays`): per-class
        columns for the fixed-delay groups, the two ADR paths, and the
        bubble/hold scalars.  Every value goes through the same
        :meth:`_scale` rounding as :meth:`group_delay`, so gathering from
        these tables is bit-identical to the per-record path.  Only the
        data-dependent EX group has no table — its delay depends on the
        operands, not just the class.

        Rows are memoised per class name on the model (a value depends
        only on the class and the operating point), so a stream of
        traces pays the per-class roundings once per class, not once per
        trace; each call returns fresh arrays.
        """
        rows = self._class_rows
        for cls in class_names:
            if cls not in rows:
                rows[cls] = self._class_row(cls)
        columns = np.array(
            [rows[cls] for cls in class_names], dtype=float
        ).reshape(len(class_names), len(_FIXED_STAGES) + 1).T.copy()
        return {
            "stage": dict(zip(_FIXED_STAGES, columns)),
            "adr_seq": self._scale(self.profile.adr_seq.max_ps),
            "adr_redirect": columns[-1],
            "hold": self._scale(self.profile.hold_delay_ps),
            "bubble": {
                stage: self._scale(self.profile.bubble_delays[stage])
                for stage in Stage
            },
        }

    def _class_row(self, cls):
        """One class's scaled ``(FE, DC, CTRL, WB, ADR redirect)`` delays;
        a bubble has no fixed-group delay (its flag masks it) and
        re-presents the sequential address."""
        if cls == BUBBLE_CLASS:
            return (0.0,) * len(_FIXED_STAGES) + (
                self._scale(self.profile.adr_seq.max_ps),
            )
        return tuple(
            self._scale(self.profile.stage_spec(cls, stage).max_ps)
            for stage in _FIXED_STAGES
        ) + (self._scale(self.profile.adr_spec(cls, True).max_ps),)

    def column_delay(self, record, column, spec):
        """Excited delay of one pipeline-spec column in one cycle.

        The spec-aware :meth:`group_delay`: the column's endpoint group is
        ``spec.group_of[column]`` and its driver view is the column's own
        occupant — except the ADR group, which keys on the spec's EX
        column exactly like the canonical layout.  For the default spec
        this is bit-identical to ``group_delay(record, Stage(column))``.
        """
        stage = Stage(spec.group_of[column])
        if stage == Stage.ADR:
            view = record.slots[spec.ex_index]
        else:
            view = record.slots[column]
        return self.group_delay(record, stage, view=view)

    def cycle_delays(self, record):
        """Excited delay of every endpoint group in this cycle."""
        return {stage: self.group_delay(record, stage) for stage in Stage}

    def cycle_max(self, record):
        """The genie-aided minimum safe period for this cycle (Eq. 2 with
        perfect knowledge): the max excited delay across all groups."""
        return max(
            self.group_delay(record, stage).delay_ps for stage in Stage
        )
