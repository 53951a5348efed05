"""Windowed views of compiled traces.

A :class:`TraceWindow` is a contiguous ``[start, stop)`` cycle slice of a
:class:`~repro.dta.compiled.CompiledTrace`, duck-typing the read surface
the clock policies and the evaluation engine touch (cycle matrices,
class tables, the ground-truth delay matrix).  Every matrix is a NumPy
*view* into the parent trace — producing windows is O(1) and holding K
windows costs no trace copies.

Window slicing is exact by construction: every registry policy's
``periods_for`` is cycle-local (a gather over per-cycle class ids, or the
per-cycle genie bound), so evaluating consecutive windows through one
:class:`~repro.clocking.controller.ClockAdjustmentController` accumulates
the same applied-period sequence as one whole-trace call — the invariant
the streaming engine's bit-identity rests on.  The one policy with
cross-cycle state (``learned:`` recent-window counts) streams through
:class:`repro.ml.features.WindowedFeatureExtractor` instead.

The windows of one :func:`iter_windows` pass share their class tables: a
LUT policy's class×stage table is built once per (trace, LUT) and every
window gathers its own cycles from it, so a stream
cut into single-cycle windows makes no more LUT lookups than one
whole-program window.
"""

import numpy as np

#: Class tables one window pass keeps (one per LUT) before it starts
#: over, so the memo stays bounded whatever LUTs its callers pass.
TABLE_MEMO_CAP = 16


class TraceWindow:
    """One contiguous cycle slice of a compiled trace (array views).

    Attributes mirror :class:`~repro.dta.compiled.CompiledTrace`;
    ``start_cycle`` and ``index`` locate the window inside the parent
    trace (violation reports need absolute cycle numbers).
    """

    __slots__ = (
        "parent", "index", "start_cycle", "num_cycles",
        "program_name", "num_retired", "class_names",
        "class_ids", "bubble", "held", "stall", "redirect",
        "excitation", "operating_point", "_tables",
    )

    #: Windows never expose the raw record trace: per-record walks over a
    #: window would silently cover the whole program.  Policies that need
    #: it (cross-operating-point genie replay) must run offline.
    trace = None

    def __init__(self, parent, start, stop, index=0, *, tables=None):
        if not 0 <= start <= stop <= parent.num_cycles:
            raise ValueError(
                f"window [{start}, {stop}) outside trace of "
                f"{parent.num_cycles} cycles"
            )
        self.parent = parent
        self.index = index
        self.start_cycle = start
        self.num_cycles = stop - start
        self.program_name = parent.program_name
        self.num_retired = parent.num_retired
        self.class_names = parent.class_names
        self.class_ids = parent.class_ids[start:stop]
        self.bubble = parent.bubble[start:stop]
        self.held = parent.held[start:stop]
        self.stall = parent.stall[start:stop]
        self.redirect = parent.redirect[start:stop]
        self.excitation = parent.excitation
        self.operating_point = parent.operating_point
        #: Class tables shared with the other windows of the same pass.
        self._tables = {} if tables is None else tables

    @property
    def stop_cycle(self):
        return self.start_cycle + self.num_cycles

    @property
    def num_classes(self):
        return len(self.class_names)

    @property
    def pipeline_spec(self):
        return self.parent.pipeline_spec

    @property
    def ex_column(self):
        return self.parent.ex_column

    @property
    def delays(self):
        """This window's rows of the parent's ground-truth delay matrix
        (materialised lazily on the parent, shared across windows)."""
        return self.parent.delays[self.start_cycle:self.stop_cycle]

    def cycle_max_delays(self):
        """This window's slice of the parent's per-cycle minimum safe
        period (the genie-oracle bound, computed once per trace)."""
        return self.parent.cycle_max_delays()[
            self.start_cycle:self.stop_cycle
        ]

    def class_table(self, lut):
        """``(num_classes, num_stages)`` table of ``lut.entry(cls, stage)``
        with one column per pipeline-spec stage (read-only, built once
        per window pass)."""
        # keyed by identity (a LUT is not hashable); the entry holds the
        # LUT, so its id cannot be recycled while the memo lives
        memo = self._tables.get(id(lut))
        if memo is None:
            if len(self._tables) >= TABLE_MEMO_CAP:
                self._tables.clear()
            table = self.parent.class_table(lut)
            table.flags.writeable = False
            memo = self._tables[id(lut)] = (lut, table)
        return memo[1]

    def class_name_at(self, cycle, stage):
        """Driver class of one window-local (cycle, stage) cell."""
        return self.class_names[self.class_ids[cycle, stage]]

    def vocab_ids(self, vocabulary):
        """Window class ids remapped onto a global class vocabulary."""
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

    def __repr__(self):
        return (
            f"TraceWindow({self.program_name!r}, "
            f"[{self.start_cycle}, {self.stop_cycle}))"
        )


def iter_windows(compiled, window_cycles):
    """Consecutive :class:`TraceWindow` slices covering a compiled trace.

    ``window_cycles=None`` yields the whole program as one window.  A
    zero-cycle trace yields no windows.
    """
    num_cycles = compiled.num_cycles
    if window_cycles is None:
        window_cycles = max(1, num_cycles)
    window_cycles = int(window_cycles)
    if window_cycles < 1:
        raise ValueError(f"window must be >= 1 cycle, got {window_cycles}")
    tables = {}
    for index, start in enumerate(range(0, num_cycles, window_cycles)):
        yield TraceWindow(
            compiled, start, min(start + window_cycles, num_cycles), index,
            tables=tables,
        )


def windows_from_sizes(compiled, sizes):
    """Windows with explicit sizes (must partition the trace exactly) —
    the window-partition property tests drive the engine through this."""
    start = 0
    tables = {}
    for index, size in enumerate(sizes):
        size = int(size)
        if size < 1:
            raise ValueError(f"window must be >= 1 cycle, got {size}")
        yield TraceWindow(compiled, start, start + size, index,
                          tables=tables)
        start += size
    if start != compiled.num_cycles:
        raise ValueError(
            f"window sizes cover {start} of {compiled.num_cycles} cycles"
        )
