"""Calibrated dynamic-delay profiles of the two design variants.

A :class:`DelayProfile` is the ground truth of the synthetic timing model:
for every (instruction timing class, pipeline stage group) it stores the
*dynamic worst-case delay* (the largest delay any operand/state combination
can excite) and the *data-dependent spread* below it.  The dynamic timing
analysis never reads these tables directly — it re-measures them through
gate-level simulation events, exactly like the paper's flow; the tables are
what the measurement should converge to.

Two variants exist (paper Sec. III-A):

- ``critical_range`` — the design synthesised with Design Compiler's
  critical-range optimisation and path over-constraining.  Its EX-stage
  class delays are calibrated to the paper's Table II; its STA period is
  2026 ps.
- ``conventional`` — the same RTL with a standard implementation flow.  It
  exhibits the *timing wall*: per-class dynamic worst cases bunch close to
  its (9 % faster) STA period of ~1859 ps.  The per-class ratios reproduce
  Table I.

All delays are at the 0.70 V reference library.
"""

import enum
from dataclasses import dataclass, field

from repro.isa.classes import all_timing_classes
from repro.isa.opcodes import SPECS, InstructionKind
from repro.sim.trace import Stage


class DesignVariant(enum.Enum):
    """Implementation flavour (paper Sec. III-A)."""

    CONVENTIONAL = "conventional"
    CRITICAL_RANGE = "critical_range"


#: Pseudo timing class used for pipeline bubbles in LUTs and attribution.
BUBBLE_CLASS = "<bubble>"


@dataclass(frozen=True)
class DelaySpec:
    """Dynamic worst-case delay and data-dependent spread, in ps."""

    max_ps: float
    spread_ps: float

    def scaled(self, factor, cap=None):
        max_ps = self.max_ps * factor
        if cap is not None:
            max_ps = min(max_ps, cap)
        return DelaySpec(round(max_ps, 1), round(self.spread_ps * factor, 1))


# ---------------------------------------------------------------------------
# Critical-range (optimised) variant: EX-stage worst cases per class.
# Entries marked [T2] are taken directly from the paper's Table II.
# ---------------------------------------------------------------------------

_EX_OPTIMIZED = {
    "l.add(i)": DelaySpec(1467.0, 270.0),   # [T2]
    "l.and(i)": DelaySpec(1482.0, 240.0),   # [T2]
    "l.or(i)": DelaySpec(1490.0, 240.0),
    "l.xor(i)": DelaySpec(1514.0, 240.0),   # [T2]
    "l.sub": DelaySpec(1496.0, 270.0),      # subtract: carry-in inversion
    "l.sll(i)": DelaySpec(1270.0, 250.0),   # [T2]
    "l.srl(i)": DelaySpec(1265.0, 250.0),
    "l.sra(i)": DelaySpec(1276.0, 250.0),
    "l.ror(i)": DelaySpec(1262.0, 250.0),
    "l.mul(i)": DelaySpec(1899.0, 300.0),   # [T2]; ~300 ps spread (Fig. 7)
    "l.div": DelaySpec(1310.0, 200.0),      # per-cycle serial-divider step
    "l.lwz": DelaySpec(1391.0, 240.0),      # [T2]
    # sub-word accesses add byte-enable decode to the request path
    "l.lbz": DelaySpec(1452.0, 240.0),
    "l.lhz": DelaySpec(1448.0, 240.0),
    # stores drive both address and data into the SRAM write pins
    "l.sw": DelaySpec(1502.0, 240.0),
    "l.sb": DelaySpec(1512.0, 240.0),
    # compare: subtract plus the flag reduction tree into the SR
    "l.sfxx(i)": DelaySpec(1492.0, 260.0),
    "l.bf": DelaySpec(1470.0, 230.0),       # [T2]
    "l.bnf": DelaySpec(1468.0, 230.0),
    "l.j": DelaySpec(905.0, 120.0),         # EX is trivial; ADR dominates
    "l.jr": DelaySpec(1150.0, 140.0),
    "l.movhi": DelaySpec(890.0, 90.0),
    "l.cmov": DelaySpec(1465.0, 220.0),  # ALU result muxed on the SR flag
    "l.extx": DelaySpec(955.0, 100.0),
    "l.nop": DelaySpec(790.0, 60.0),
}

#: Sequential next-pc / instruction-memory address path (ADR group).  The
#: tightly-coupled instruction SRAM's address pins sit behind the pc mux;
#: this path is the limiter whenever the EX instruction is cheap, which is
#: what puts the ADR stage at ~7 % of limiting cycles (Fig. 6).
_ADR_SEQ_OPTIMIZED = DelaySpec(1168.0, 90.0)
#: Redirect path from EX into the instruction-memory address register,
#: excited by taken control transfers.  1172 ps is the paper's l.j entry.
_ADR_REDIRECT_OPTIMIZED = DelaySpec(1172.0, 60.0)   # [T2]
#: Instruction SRAM read (FE group); essentially class-independent.
_FE_OPTIMIZED = DelaySpec(900.0, 70.0)
#: Decode + register-file read (DC group); kept just below the sequential
#: ADR path so weak-EX cycles are attributed to the instruction memory.
_DC_OPTIMIZED = DelaySpec(1140.0, 120.0)
_DC_OPTIMIZED_NOP = DelaySpec(1060.0, 60.0)
#: Mem/control stage: data SRAM response for loads, commit for stores.
_CTRL_OPTIMIZED = {
    "load": DelaySpec(1142.0, 130.0),
    "store": DelaySpec(1120.0, 120.0),
    "other": DelaySpec(1060.0, 110.0),
    "nop": DelaySpec(860.0, 60.0),
}
#: Writeback mux into the register file.
_WB_OPTIMIZED = {
    "write": DelaySpec(880.0, 90.0),
    "nowrite": DelaySpec(760.0, 80.0),
}

#: Per-stage delay when the stage holds a bubble (no instruction).
_BUBBLE_DELAYS_OPTIMIZED = {
    Stage.ADR: 0.0,      # unused: the ADR group is driven by EX (see grouping)
    Stage.FE: 320.0,
    Stage.DC: 310.0,
    Stage.EX: 350.0,
    Stage.CTRL: 330.0,
    Stage.WB: 300.0,
}

#: Endpoint activity when a stage is held by a stall (inputs stable).
_HOLD_DELAY_PS = 150.0

#: STA clock periods (paper: 2026 ps optimised; +9 % over conventional).
_STATIC_OPTIMIZED_PS = 2026.0
_STATIC_CONVENTIONAL_PS = 1859.0

# ---------------------------------------------------------------------------
# Conventional variant: derived from the optimised profile by the inverse of
# the paper's Table I factors (factor = optimised / conventional), with a
# default factor for classes the paper does not list, capped just below the
# conventional STA period (a dynamic delay cannot exceed the static bound).
# ---------------------------------------------------------------------------

#: Table I factors (optimised / conventional), EX-stage classes.
_TABLE1_EX_FACTORS = {
    "l.add(i)": 0.92,
    "l.bf": 0.78,
    "l.bnf": 0.78,
    "l.lwz": 0.85,
    "l.lbz": 0.85,
    "l.lhz": 0.85,
    "l.mul(i)": 1.10,
    "l.sw": 0.85,
    "l.sb": 0.85,
}
_DEFAULT_EX_FACTOR = 0.86
#: l.j factor 0.74 applies to its row maximum, the ADR redirect path.
_ADR_REDIRECT_FACTOR = 0.74
#: l.nop factor 0.78 applies to its row maximum, the sequential ADR path.
_ADR_SEQ_FACTOR = 0.78
_NONEX_FACTOR = 0.88
_CONV_CAP_PS = _STATIC_CONVENTIONAL_PS * 0.995


#: Representative :class:`InstructionKind` (its first mnemonic's) and
#: rD usage (any mnemonic's) of every timing class, read off SPECS once.
_CLASS_KIND = {}
_CLASS_WRITES_RD = {}
for _spec in SPECS.values():
    _CLASS_KIND.setdefault(_spec.timing_class, _spec.kind)
    _CLASS_WRITES_RD[_spec.timing_class] = (
        _CLASS_WRITES_RD.get(_spec.timing_class, False) or _spec.writes_rd
    )
del _spec


def _kind_of_class(cls):
    """Representative :class:`InstructionKind` of a timing class."""
    try:
        return _CLASS_KIND[cls]
    except KeyError:
        raise KeyError(f"unknown timing class {cls!r}") from None


def _class_writes_rd(cls):
    return _CLASS_WRITES_RD.get(cls, False)


def _ctrl_category(cls):
    kind = _kind_of_class(cls)
    if kind == InstructionKind.LOAD:
        return "load"
    if kind == InstructionKind.STORE:
        return "store"
    if kind == InstructionKind.NOP:
        return "nop"
    return "other"


@dataclass
class DelayProfile:
    """Ground-truth dynamic delay tables of one design variant."""

    variant: DesignVariant
    static_period_ps: float
    ex: dict
    adr_seq: DelaySpec
    adr_redirect: DelaySpec
    fe: DelaySpec
    dc: dict                     # class -> DelaySpec (with "default")
    ctrl: dict                   # category -> DelaySpec
    wb: dict                     # "write"/"nowrite" -> DelaySpec
    bubble_delays: dict = field(default_factory=dict)
    hold_delay_ps: float = _HOLD_DELAY_PS
    #: Critical-range optimisation cost (paper: 5-13 % area/power).
    area_overhead_percent: float = 0.0
    power_overhead_percent: float = 0.0

    # -- lookup helpers -----------------------------------------------------

    def classes(self):
        return sorted(self.ex)

    def ex_spec(self, cls):
        return self.ex[cls]

    def dc_spec(self, cls):
        return self.dc.get(cls, self.dc["default"])

    def ctrl_spec(self, cls):
        return self.ctrl[_ctrl_category(cls)]

    def wb_spec(self, cls):
        return self.wb["write" if _class_writes_rd(cls) else "nowrite"]

    def adr_spec(self, cls, redirect):
        """ADR-group spec for driver class ``cls`` (see grouping module)."""
        if redirect and _kind_of_class(cls) in (
            InstructionKind.BRANCH,
            InstructionKind.JUMP,
            InstructionKind.JUMP_REG,
        ):
            return self.adr_redirect
        return self.adr_seq

    def stage_spec(self, cls, stage, redirect=False):
        """DelaySpec of (class, stage group); the single lookup used by the
        excitation model and by the ground-truth LUT of the tests."""
        if stage == Stage.ADR:
            return self.adr_spec(cls, redirect)
        if stage == Stage.FE:
            return self.fe
        if stage == Stage.DC:
            return self.dc_spec(cls)
        if stage == Stage.EX:
            return self.ex_spec(cls)
        if stage == Stage.CTRL:
            return self.ctrl_spec(cls)
        if stage == Stage.WB:
            return self.wb_spec(cls)
        raise KeyError(f"unknown stage {stage!r}")

    # -- reference LUT (what a perfect characterisation would extract) ------

    def true_lut_row(self, cls):
        """Worst-case delay per stage group for one class.

        The ADR entry uses the redirect path for control classes, because a
        sufficiently long characterisation observes taken transfers.
        """
        control = _kind_of_class(cls) in (
            InstructionKind.BRANCH,
            InstructionKind.JUMP,
            InstructionKind.JUMP_REG,
        )
        return {
            Stage.ADR: (self.adr_redirect if control else self.adr_seq).max_ps,
            Stage.FE: self.fe.max_ps,
            Stage.DC: self.dc_spec(cls).max_ps,
            Stage.EX: self.ex_spec(cls).max_ps,
            Stage.CTRL: self.ctrl_spec(cls).max_ps,
            Stage.WB: self.wb_spec(cls).max_ps,
        }

    def class_row_max(self, cls):
        """Worst-case delay of a class across all stages (Table I/II view)."""
        row = self.true_lut_row(cls)
        return max(row.values())

    def class_limiting_stage(self, cls):
        """Stage holding the class's worst-case delay (Table II 'Stage')."""
        row = self.true_lut_row(cls)
        return max(row, key=lambda stage: row[stage])


def load_profile(variant):
    """Build the :class:`DelayProfile` for a design variant."""
    if variant == DesignVariant.CRITICAL_RANGE:
        return DelayProfile(
            variant=variant,
            static_period_ps=_STATIC_OPTIMIZED_PS,
            ex=dict(_EX_OPTIMIZED),
            adr_seq=_ADR_SEQ_OPTIMIZED,
            adr_redirect=_ADR_REDIRECT_OPTIMIZED,
            fe=_FE_OPTIMIZED,
            dc={"default": _DC_OPTIMIZED, "l.nop": _DC_OPTIMIZED_NOP},
            ctrl=dict(_CTRL_OPTIMIZED),
            wb=dict(_WB_OPTIMIZED),
            bubble_delays=dict(_BUBBLE_DELAYS_OPTIMIZED),
            area_overhead_percent=9.0,
            power_overhead_percent=8.0,
        )
    if variant == DesignVariant.CONVENTIONAL:
        ex = {}
        for cls, spec in _EX_OPTIMIZED.items():
            factor = _TABLE1_EX_FACTORS.get(cls, _DEFAULT_EX_FACTOR)
            ex[cls] = spec.scaled(1.0 / factor, cap=_CONV_CAP_PS)
        return DelayProfile(
            variant=variant,
            static_period_ps=_STATIC_CONVENTIONAL_PS,
            ex=ex,
            adr_seq=_ADR_SEQ_OPTIMIZED.scaled(1.0 / _ADR_SEQ_FACTOR),
            adr_redirect=_ADR_REDIRECT_OPTIMIZED.scaled(
                1.0 / _ADR_REDIRECT_FACTOR
            ),
            fe=_FE_OPTIMIZED.scaled(1.0 / _NONEX_FACTOR),
            dc={
                "default": _DC_OPTIMIZED.scaled(1.0 / _NONEX_FACTOR),
                "l.nop": _DC_OPTIMIZED_NOP.scaled(1.0 / _NONEX_FACTOR),
            },
            ctrl={
                key: spec.scaled(1.0 / _NONEX_FACTOR)
                for key, spec in _CTRL_OPTIMIZED.items()
            },
            wb={
                key: spec.scaled(1.0 / _NONEX_FACTOR)
                for key, spec in _WB_OPTIMIZED.items()
            },
            bubble_delays={
                stage: delay / _NONEX_FACTOR
                for stage, delay in _BUBBLE_DELAYS_OPTIMIZED.items()
            },
            area_overhead_percent=0.0,
            power_overhead_percent=0.0,
        )
    raise ValueError(f"unknown design variant {variant!r}")


def all_profile_classes():
    """Every timing class a profile must cover (sanity-checked in tests)."""
    return all_timing_classes()
