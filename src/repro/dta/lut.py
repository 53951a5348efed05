"""The delay-prediction lookup table (paper Fig. 1 / Table II).

One row per instruction timing class (plus the bubble pseudo-class), one
entry per pipeline stage group: the worst dynamic delay the class was
observed to excite in that group during characterisation.  Classes with too
few observations fall back to the static clock period (paper Sec. IV-A),
which is always safe.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from repro.sim.trace import Stage
from repro.timing.profiles import BUBBLE_CLASS
from repro.utils.tables import format_table

#: Default threshold for trusting a class's characterisation: classes
#: seen fewer times in EX keep the static period.
DEFAULT_MIN_OCCURRENCES = 30


@dataclass
class DelayLUT:
    """Per-class, per-stage delay prediction table."""

    static_period_ps: float
    #: class -> {Stage -> delay_ps}; missing entries fall back to static.
    entries: dict = field(default_factory=dict)
    #: class -> number of EX-stage observations during characterisation.
    occurrences: dict = field(default_factory=dict)
    #: classes with enough observations to trust their entries.
    characterized: set = field(default_factory=set)
    min_occurrences: int = 0
    source: str = ""

    def classes(self):
        return sorted(self.entries)

    def is_characterized(self, cls):
        return cls in self.characterized

    def entry(self, cls, stage):
        """Predicted worst delay of ``cls`` in ``stage`` (ps).

        Falls back to the static period for unknown or under-characterised
        classes — the always-safe choice.
        """
        if cls not in self.characterized:
            return self.static_period_ps
        row = self.entries.get(cls)
        if row is None or stage not in row:
            return self.static_period_ps
        return row[stage]

    def row(self, cls):
        return {stage: self.entry(cls, stage) for stage in Stage}

    def class_max(self, cls):
        """Worst entry of a class across stages (Table II 'Max. delay')."""
        return max(self.row(cls).values())

    def limiting_stage(self, cls):
        """Stage of the class's worst entry (Table II 'Stage')."""
        row = self.row(cls)
        return max(row, key=lambda stage: row[stage])

    @property
    def bubble_period_ps(self):
        """Period bound applied for bubbles (flushed/stalled slots)."""
        return self.class_max(BUBBLE_CLASS)

    def dense(self):
        """The table as ``(index, matrix)``: row ``index[cls]`` of the
        float matrix holds ``entry(cls, stage)`` per :class:`Stage` for
        each characterised class (and the bubble), the last row the static
        period :meth:`entry` gives any other class.

        Built once while ``entries``, ``characterized`` and
        ``static_period_ps`` stay the same objects, so change a LUT by
        assigning new ones; copies and pickles drop the memo.
        """
        key = (self.entries, self.characterized, self.static_period_ps)
        memo = self.__dict__.get("_dense")
        if memo is None or any(a is not b for a, b in zip(memo[0], key)):
            static = self.static_period_ps
            index = {cls: row for row, cls in enumerate(dict.fromkeys(
                cls for cls in self.classes() + [BUBBLE_CLASS]
                if cls in self.characterized
            ))}
            rows = [[self.entries.get(cls, {}).get(stage, static)
                     for stage in Stage] for cls in index]
            matrix = np.array(rows + [[static] * len(Stage)], dtype=float)
            matrix.flags.writeable = False
            memo = self.__dict__["_dense"] = (key, index, matrix)
        return memo[1], memo[2]

    def __getstate__(self):
        state = dict(self.__dict__)
        state.pop("_dense", None)
        return state

    # -- serialisation -------------------------------------------------------

    def to_dict(self):
        """JSON-ready payload (``to_json`` text, before encoding)."""
        return {
            "static_period_ps": self.static_period_ps,
            "min_occurrences": self.min_occurrences,
            "source": self.source,
            "characterized": sorted(self.characterized),
            "occurrences": dict(self.occurrences),
            "entries": {
                cls: {stage.name: delay for stage, delay in row.items()}
                for cls, row in self.entries.items()
            },
        }

    def to_json(self):
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_dict(cls, payload):
        lut = cls(
            static_period_ps=payload["static_period_ps"],
            min_occurrences=payload.get("min_occurrences", 0),
            source=payload.get("source", ""),
        )
        lut.characterized = set(payload.get("characterized", []))
        lut.occurrences = {
            key: int(value)
            for key, value in payload.get("occurrences", {}).items()
        }
        lut.entries = {
            cls_name: {
                Stage[stage_name]: float(delay)
                for stage_name, delay in row.items()
            }
            for cls_name, row in payload.get("entries", {}).items()
        }
        return lut

    @classmethod
    def from_json(cls, text):
        return cls.from_dict(json.loads(text))

    # -- reporting -------------------------------------------------------------

    def render(self, classes=None, title="Delay-prediction LUT [ps]"):
        """Table II-style rendering (one row per class, max + stage)."""
        if classes is None:
            classes = self.classes()
        rows = []
        for cls in classes:
            if cls not in self.entries:
                continue
            row = self.row(cls)
            rows.append((
                cls,
                f"{self.class_max(cls):.0f}",
                self.limiting_stage(cls).name,
                "yes" if cls in self.characterized else "static-fallback",
                self.occurrences.get(cls, 0),
                " ".join(f"{row[stage]:.0f}" for stage in Stage),
            ))
        return format_table(
            ["Instruction", "Max delay", "Stage", "Characterized", "Occur.",
             "ADR FE DC EX CTRL WB"],
            rows,
            title=title,
        )


@dataclass
class CharacterizationResult:
    """Merged characterisation of one design.

    Built by :mod:`repro.flow.characterize`; defined beside the LUT so
    that wrapping a stored LUT imports no characterisation code.
    """

    design: object
    lut: object                       # merged DelayLUT
    runs: list = field(default_factory=list)
    total_cycles: int = 0

    @property
    def num_runs(self):
        return len(self.runs)

    def run_named(self, program_name):
        for run in self.runs:
            if run.program_name == program_name:
                return run
        raise KeyError(f"no characterisation run named {program_name!r}")
