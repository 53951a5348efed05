"""Declarative pipeline specifications: the microarchitecture as a parameter.

The pipeline engine (:mod:`repro.sim.vector`) historically modelled
one fixed machine: the customised six-stage mor1kx of the paper.  A
:class:`PipelineSpec` turns that machine into *data*: stage count and
naming, forwarding on/off, mul/div EX latencies, the load-use penalty,
and the (currently single) hazard and branch policies.  Named presets
are registered litex-style in :data:`PIPELINE_VARIANTS` and selected by
name everywhere a design is built
(``build_design(..., pipeline_spec="deep7")``, ``Session``,
``ScenarioGrid``, ``repro --pipeline-spec``).

Design rules
------------

- **Timing classes are canonical.**  Each spec stage maps 1:1 onto one of
  the six canonical path groups (the :class:`~repro.sim.trace.Stage`
  members) — the netlist, delay profiles and excitation tables stay
  keyed by those groups.  A seven-stage spec simply has two columns that
  share the ``DC`` group's paths; a five-stage spec drops the ``FE``
  column.  Delays are **not** rescaled per spec in v1: the spec changes
  *when* each group is exercised, never *how fast* it is.
- **Specs change cycle timing only.**  Architectural semantics (the ISS,
  retirement order, memory and register state) are spec-invariant, which
  is what lets the pipeline engine reuse one architectural pass across
  every spec.
- **The default spec is the identity.**  :data:`DEFAULT_SPEC` reproduces
  today's machine bit-identically, and artifact keys / operating points
  only grow a spec digest for *non-default* specs, so every existing
  artifact, fingerprint and golden trace stays byte-stable.

Structural constraints (validated at construction):

- the first stage is the ``ADR`` group and exactly one stage is the
  ``EX`` group;
- at least two front stages (``ADR`` plus the consumer/delay-slot stage)
  and at least two back stages (a ``CTRL``-group memory-response stage
  directly after EX, then write-back);
- front stages draw from the ``ADR``/``FE``/``DC`` groups, back stages
  from ``CTRL``/``WB``.

Hazard semantics per spec (every valid spec runs on
:func:`repro.sim.vector.simulate`; the cycle-stepping reference in
``tests/oracle.py`` pins them):

- a consumer waits at the last front stage while the *youngest*
  in-flight writer of one of its source registers (r0 excluded) sits in
  the spec's hazard window, counted from EX; a younger writer of the
  same register decides over an older one, drained (post-halt)
  writers still interlock, and nothing interlocks while a multi-cycle
  op holds EX.  A writer leaves the window ``window`` cycles after its
  last EX cycle, so the consumer enters EX at
  ``max(previous exit, writer's last EX cycle + window + 1)``;
- *forwarding on* (default): results forward EX→EX and only a load
  writer stalls — the window is ``load_use_penalty`` stages (capped at
  the back stages), so a consumer directly behind a load stalls
  ``load_use_penalty`` cycles;
- *forwarding off*: any writer stalls until it reaches write-back — the
  window is ``[EX, WB)`` and the register file is write-through (a
  value is readable the cycle its producer sits in the final stage).
  Only register operands interlock; the flag/carry path keeps its
  EX-resolved timing;
- taken control transfers redirect from EX and squash the
  ``num_front - 2`` wrong-path words behind the delay slot
  (``branch_policy == "delay-slot"``, the only supported policy).
- ``l.div``/``l.divu`` occupy EX for the divider latency;
  ``l.mul``/``l.muli``/``l.mulu`` for :attr:`PipelineSpec.mul_latency`
  cycles (multi-cycle EX occupancy stalls the front end).
"""

import hashlib
import json
from dataclasses import dataclass, field

from repro.isa.opcodes import KIND_CODE, InstructionKind
from repro.sim.trace import Stage

_DIV_CODE = KIND_CODE[InstructionKind.DIV]
_MUL_CODE = KIND_CODE[InstructionKind.MUL]

#: Default cycle budget of every pipeline run: ``vector.simulate``, the
#: compiled-trace cache and the evaluation flow.  A runaway program holds
#: its per-step ISS columns until the budget error, a few hundred MB here.
DEFAULT_MAX_CYCLES = 4_000_000

#: The only hazard policy implemented: stall-until-resolved interlocks.
HAZARD_POLICIES = ("interlock",)

#: The only branch policy implemented: OR1K single delay slot, resolve in EX.
BRANCH_POLICIES = ("delay-slot",)

#: Groups a front stage may draw from / back stages may draw from.
_FRONT_GROUPS = (Stage.ADR, Stage.FE, Stage.DC)
_BACK_GROUPS = (Stage.CTRL, Stage.WB)


@dataclass(frozen=True)
class StageDef:
    """One pipeline stage: a display name plus its canonical path group."""

    name: str
    group: Stage

    def __post_init__(self):
        if not self.name or not self.name.isidentifier():
            raise ValueError(f"stage name {self.name!r} is not an identifier")
        object.__setattr__(self, "group", Stage(self.group))


def _default_stages():
    return tuple(StageDef(stage.name, stage) for stage in Stage)


@dataclass(frozen=True)
class PipelineSpec:
    """Frozen description of one pipeline microarchitecture.

    Hashable (usable in design memo keys) and JSON round-trippable
    (:meth:`to_dict` / :meth:`from_dict`); :attr:`digest` is the stable
    content address that joins artifact keys for non-default specs.
    """

    name: str = "baseline6"
    stages: tuple = field(default_factory=_default_stages)
    forwarding: bool = True
    load_use_penalty: int = 1
    mul_latency: int = 1
    div_latency: int = 32
    hazard_policy: str = "interlock"
    branch_policy: str = "delay-slot"

    def __post_init__(self):
        stages = tuple(
            s if isinstance(s, StageDef) else StageDef(s[0], Stage(s[1]))
            for s in self.stages
        )
        object.__setattr__(self, "stages", stages)
        groups = [s.group for s in stages]
        if Stage.EX not in groups:
            raise ValueError("spec needs exactly one EX-group stage")
        ex_index = groups.index(Stage.EX)
        if groups.count(Stage.EX) != 1:
            raise ValueError("spec needs exactly one EX-group stage")
        if ex_index < 2:
            raise ValueError(
                "spec needs at least two front stages (ADR + delay slot)"
            )
        if len(stages) - ex_index - 1 < 2:
            raise ValueError(
                "spec needs at least two back stages (CTRL + WB)"
            )
        if groups[0] != Stage.ADR or Stage.ADR in groups[1:]:
            raise ValueError("the first (and only first) stage must be ADR")
        for stage_def in stages[1:ex_index]:
            if stage_def.group not in _FRONT_GROUPS:
                raise ValueError(
                    f"front stage {stage_def.name!r} must use an "
                    "ADR/FE/DC path group"
                )
        if groups[ex_index + 1] != Stage.CTRL:
            raise ValueError(
                "the stage after EX must use the CTRL path group "
                "(data-memory response)"
            )
        for stage_def in stages[ex_index + 1:]:
            if stage_def.group not in _BACK_GROUPS:
                raise ValueError(
                    f"back stage {stage_def.name!r} must use a "
                    "CTRL/WB path group"
                )
        if len({s.name for s in stages}) != len(stages):
            raise ValueError("stage names must be unique")
        if self.load_use_penalty < 1:
            raise ValueError("load_use_penalty must be at least 1 cycle")
        if self.mul_latency < 1:
            raise ValueError("mul_latency must be at least 1 cycle")
        if self.div_latency < 1:
            raise ValueError("div_latency must be at least 1 cycle")
        if self.hazard_policy not in HAZARD_POLICIES:
            raise ValueError(f"unknown hazard policy {self.hazard_policy!r}")
        if self.branch_policy not in BRANCH_POLICIES:
            raise ValueError(f"unknown branch policy {self.branch_policy!r}")
        object.__setattr__(self, "_group_of", tuple(int(g) for g in groups))
        object.__setattr__(self, "_ex_index", ex_index)

    # -- derived geometry ---------------------------------------------------

    @property
    def num_stages(self):
        return len(self.stages)

    @property
    def ex_index(self):
        """Column of the EX stage == number of front stages."""
        return self._ex_index

    @property
    def num_front(self):
        """Front stages (ADR .. the consumer/delay-slot stage)."""
        return self.ex_index

    @property
    def num_back(self):
        """Back stages (CTRL-group response stage .. write-back)."""
        return self.num_stages - self.ex_index - 1

    @property
    def squash_count(self):
        """Wrong-path words killed per taken transfer (behind the delay
        slot): every front slot except ADR and the delay slot itself."""
        return self.num_front - 2

    @property
    def group_of(self):
        """Canonical path group (as int) of every column."""
        return self._group_of

    @property
    def stage_names(self):
        return tuple(s.name for s in self.stages)

    @property
    def is_default(self):
        return self.digest == DEFAULT_SPEC.digest

    def ex_latency(self, kind_code):
        """EX residency (cycles) of an instruction kind code."""
        if kind_code == _DIV_CODE:
            return self.div_latency
        if kind_code == _MUL_CODE:
            return self.mul_latency
        return 1

    def canonical_column(self, group):
        """Representative column of one canonical group, or ``None`` when
        the spec has no stage on that group's paths.  Multi-column groups
        resolve to the column nearest EX (the one feeding the execute
        stage) — used by the fixed-width feature projection in
        :mod:`repro.ml.features`."""
        group = int(group)
        columns = [i for i, g in enumerate(self.group_of) if g == group]
        if not columns:
            return None
        if group in (int(Stage.ADR), int(Stage.FE), int(Stage.DC)):
            return columns[-1]
        return columns[0]

    def stage_label(self, column):
        """Canonical :class:`Stage` of one column — violation reports and
        serialized rows stay in the fixed six-group vocabulary across
        every spec."""
        return Stage(self.group_of[column])

    # -- identity -----------------------------------------------------------

    def to_dict(self):
        return {
            "name": self.name,
            "stages": [[s.name, int(s.group)] for s in self.stages],
            "forwarding": bool(self.forwarding),
            "load_use_penalty": int(self.load_use_penalty),
            "mul_latency": int(self.mul_latency),
            "div_latency": int(self.div_latency),
            "hazard_policy": self.hazard_policy,
            "branch_policy": self.branch_policy,
        }

    @classmethod
    def from_dict(cls, payload):
        payload = dict(payload)
        stages = tuple(
            StageDef(name, Stage(group))
            for name, group in payload.pop("stages")
        )
        return cls(stages=stages, **payload)

    @property
    def digest(self):
        """Structural content address (stable hex digest).

        The display :attr:`name` is excluded: two specs describing the
        same machine key the same artifacts regardless of registry name.
        """
        cached = self.__dict__.get("_digest")
        if cached is None:
            payload = self.to_dict()
            del payload["name"]
            cached = hashlib.sha256(
                json.dumps(payload, sort_keys=True).encode()
            ).hexdigest()[:16]
            object.__setattr__(self, "_digest", cached)
        return cached


def _stages(*pairs):
    return tuple(StageDef(name, group) for name, group in pairs)


#: The paper's customised six-stage mor1kx — the identity spec.
DEFAULT_SPEC = PipelineSpec()

#: Named presets, litex-style: extendable by :func:`register_pipeline_spec`.
PIPELINE_VARIANTS = {
    "baseline6": DEFAULT_SPEC,
    # forwarding disabled: every RAW dependence interlocks until the
    # producer reaches write-back
    "nofwd6": PipelineSpec(name="nofwd6", forwarding=False),
    # five stages: the instruction SRAM read folds into the decode stage
    "shallow5": PipelineSpec(
        name="shallow5",
        stages=_stages(
            ("ADR", Stage.ADR), ("DC", Stage.DC), ("EX", Stage.EX),
            ("CTRL", Stage.CTRL), ("WB", Stage.WB),
        ),
    ),
    # seven stages: decode/register-read split over two DC-group columns,
    # so a taken transfer squashes two wrong-path words
    "deep7": PipelineSpec(
        name="deep7",
        stages=_stages(
            ("ADR", Stage.ADR), ("FE", Stage.FE), ("DC1", Stage.DC),
            ("DC2", Stage.DC), ("EX", Stage.EX), ("CTRL", Stage.CTRL),
            ("WB", Stage.WB),
        ),
    ),
    # iterative four-cycle multiplier in an otherwise-baseline machine
    "slowmul6": PipelineSpec(name="slowmul6", mul_latency=4),
    # two-cycle load-use penalty
    "slowmem6": PipelineSpec(name="slowmem6", load_use_penalty=2),
}


def get_pipeline_spec(spec=None):
    """Resolve ``spec`` (a :class:`PipelineSpec`, a registered preset
    name, a spec dict, or ``None`` for the default) to a spec object."""
    if spec is None:
        return DEFAULT_SPEC
    if isinstance(spec, PipelineSpec):
        return spec
    if isinstance(spec, str):
        try:
            return PIPELINE_VARIANTS[spec]
        except KeyError:
            known = ", ".join(sorted(PIPELINE_VARIANTS))
            raise ValueError(
                f"unknown pipeline spec {spec!r} (known: {known})"
            ) from None
    if isinstance(spec, dict):
        return PipelineSpec.from_dict(spec)
    raise TypeError(f"cannot resolve a pipeline spec from {spec!r}")


def register_pipeline_spec(spec, replace=False):
    """Register a preset under ``spec.name`` (litex ``CPU_VARIANTS``
    pattern); returns the spec for chaining."""
    spec = get_pipeline_spec(spec)
    if not replace and spec.name in PIPELINE_VARIANTS:
        raise ValueError(f"pipeline spec {spec.name!r} already registered")
    PIPELINE_VARIANTS[spec.name] = spec
    return spec
