"""Benchmark-side nested timers around the public calls of each layer.

The program under test is left untouched: :func:`probes` swaps module
attributes for timing wrappers while a traced op runs and restores them
afterwards.  Modules that are not imported yet (a fresh ``repro``
process) are patched the moment they are first imported; every module
executed while the probes are installed is timed as ``cli.import``.

Spans are kept in memory (``Recorder.spans``) and reduced at the end
into per-layer *self* time: a span's duration minus the time its child
spans cover.  Everything single-threaded nests strictly, so the self
times of all spans sum to the covered wall time.
"""

import functools
import importlib.abc
import sys
import time
from collections import Counter
from contextlib import contextmanager

#: Per-layer self-time metrics, in reporting order.
TIME_LAYERS = (
    "cli.interp", "cli.import", "timing.design", "characterize.busy",
    "sim.decode", "sim.iss", "sim.reconstruct", "dta.compile",
    "dta.delays", "store.save", "store.load", "clocking.make_policy",
    "clocking.periods", "evaluate.safety", "runner.merge", "frame.build",
    "stream.self",
)

#: Counts gathered at the same boundaries.
COUNTS = (
    "characterize.programs", "sim.simulations", "sim.fallbacks",
    "store.hits", "store.misses", "store.corrupt", "store.bytes_written",
    "evaluate.calls", "stream.windows",
)

#: ``(module, attribute, layer, counter)``: ``attribute`` is a function
#: or ``Class.method``; ``counter`` (optional) counts calls.  Several
#: attributes may feed one layer (e.g. every store save).
_TIMED = (
    ("repro.timing.design", "build_design", "timing.design", None),
    ("repro.flow.characterize", "_characterize_impl", "characterize.busy",
     None),
    ("repro.flow.characterize", "characterize_program", "characterize.busy",
     "characterize.programs"),
    ("repro.sim.predecode", "image_for", "sim.decode", None),
    ("repro.sim.predecode", "collect", "sim.iss", None),
    # vector.simulate = ISS pass + array reconstruction; with the ISS
    # (and decode) nested inside, its self time is the reconstruction
    ("repro.sim.vector", "simulate", "sim.reconstruct", "sim.simulations"),
    ("repro.sim.vector", "reconstruct", "sim.reconstruct", None),
    ("repro.sim.pipeline", "PipelineSimulator.run", "sim.reconstruct", None),
    ("repro.dta.compiled", "compile_vector_run", "dta.compile", None),
    ("repro.dta.compiled", "compile_trace", "dta.compile", None),
    ("repro.lab.store", "ArtifactStore.save_compiled_trace", "store.save",
     None),
    ("repro.lab.store", "ArtifactStore.save_lut", "store.save", None),
    ("repro.lab.store", "ArtifactStore.save_char_lut", "store.save", None),
    ("repro.lab.store", "ArtifactStore.save_result", "store.save", None),
    ("repro.lab.store", "ArtifactStore.save_frame", "store.save", None),
    ("repro.lab.store", "ArtifactStore.load_compiled_trace", "store.load",
     None),
    ("repro.lab.store", "ArtifactStore.load_lut", "store.load", None),
    ("repro.lab.store", "ArtifactStore.load_char_lut", "store.load", None),
    ("repro.lab.store", "ArtifactStore.load_result", "store.load", None),
    ("repro.lab.store", "ArtifactStore.load_frame", "store.load", None),
    ("repro.flow.evaluate", "SweepConfig.make_policy",
     "clocking.make_policy", None),
    ("repro.flow.evaluate", "SweepConfig.make_generator",
     "clocking.make_policy", None),
    ("repro.clocking.controller", "ClockAdjustmentController.periods_for",
     "clocking.periods", None),
    # evaluate_compiled minus its periods_for child: the safety compare
    # and the violation records
    ("repro.flow.evaluate", "evaluate_compiled", "evaluate.safety",
     "evaluate.calls"),
    ("repro.lab.runner", "SweepRunner._merge", "runner.merge", None),
    ("repro.api.frame", "ResultFrame.from_rows", "frame.build", None),
    ("repro.api.session", "evaluation_row", "frame.build", None),
    ("repro.stream.session", "evaluation_row", "frame.build", None),
    ("repro.stream.session", "StreamingSession.evaluate", "stream.self",
     None),
)

#: Root span of one op; its self time is reported as unattributed.
ROOT = "op"


class Recorder:
    """In-memory span list plus counters for one traced op."""

    def __init__(self):
        self.spans = []        # [layer, start, end, parent index]
        self.counts = Counter()
        self._stack = []

    @contextmanager
    def span(self, layer):
        parent = self._stack[-1] if self._stack else None
        entry = [layer, time.perf_counter(), None, parent]
        self.spans.append(entry)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            entry[2] = time.perf_counter()
            self._stack.pop()

    def add(self, layer, start, end):
        """A span measured elsewhere (another process), at top level."""
        self.spans.append([layer, start, end, None])

    def wrap(self, function, layer, counter=None, none_counter=None):
        """``function`` timed as ``layer``; ``counter`` counts calls,
        ``none_counter`` calls that returned ``None``."""
        span = self.span
        counts = self.counts

        @functools.wraps(function)
        def probe(*args, **kwargs):
            if counter is not None:
                counts[counter] += 1
            with span(layer):
                result = function(*args, **kwargs)
            if none_counter is not None and result is None:
                counts[none_counter] += 1
            return result

        return probe


def self_times(spans):
    """Per-layer self seconds of a span list (children strictly nest)."""
    child_time = [0.0] * len(spans)
    for layer, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals = Counter()
    for index, (layer, start, end, _) in enumerate(spans):
        totals[layer] += (end - start) - child_time[index]
    return totals


def _patch_targets(module, recorder):
    """The ``(owner, name, original, replacement)`` patches for one
    imported module."""
    patches = []
    for module_name, attribute, layer, counter in _TIMED:
        if module_name != module.__name__:
            continue
        owner = module
        *path, name = attribute.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = owner.__dict__[name]
        # vector.simulate returns None when the scalar engine takes over
        none_counter = ("sim.fallbacks" if attribute == "simulate"
                        and module_name == "repro.sim.vector" else None)
        if isinstance(raw, classmethod):
            replacement = classmethod(recorder.wrap(
                raw.__func__, layer, counter, none_counter))
        else:
            replacement = recorder.wrap(raw, layer, counter, none_counter)
        patches.append((owner, name, raw, replacement))
    if module.__name__ == "repro.dta.compiled":
        patches.append(_delays_patch(module.CompiledTrace, recorder))
    if module.__name__ == "repro.lab.store":
        patches.extend(_store_count_patches(module, recorder))
    return patches


def _delays_patch(cls, recorder):
    """Time the first (materialising) read of ``CompiledTrace.delays``;
    nested inside ``store.save`` it stops billing the matrix to the
    store."""
    raw = cls.__dict__["delays"]
    getter = raw.fget

    def delays(self):
        if self._delays is not None:
            return getter(self)
        with recorder.span("dta.delays"):
            return getter(self)

    return cls, "delays", raw, property(delays, doc=raw.__doc__)


def _store_count_patches(module, recorder):
    counts = recorder.counts
    stats_record = module.StoreStats.__dict__["record"]

    def record(self, kind, event):
        if event in ("hits", "misses", "corrupt"):
            counts[f"store.{event}"] += 1
        return stats_record(self, kind, event)

    write_atomic = module.ArtifactStore.__dict__["_write_atomic"]

    def _write_atomic(self, path, writer):
        write_atomic(self, path, writer)
        counts["store.bytes_written"] += path.stat().st_size

    return [
        (module.StoreStats, "record", stats_record, record),
        (module.ArtifactStore, "_write_atomic", write_atomic, _write_atomic),
    ]


class _ImportProbe(importlib.abc.MetaPathFinder):
    """Times every module executed while the probes are installed as
    ``cli.import`` (lazy imports are import cost too) and applies the
    probes to a watched module right after it executes."""

    def __init__(self, recorder, apply):
        self.recorder = recorder
        self.apply = apply

    def find_spec(self, name, path, target=None):
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        if spec.loader is not None:
            spec.loader = _ProbeLoader(spec.loader, self)
        return spec


class _ProbeLoader(importlib.abc.Loader):
    def __init__(self, inner, probe):
        self._inner = inner
        self._probe = probe

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def create_module(self, spec):
        with self._probe.recorder.span("cli.import"):
            return self._inner.create_module(spec)

    def exec_module(self, module):
        # hand the real loader back before any code can look at it
        module.__spec__.loader = module.__loader__ = self._inner
        with self._probe.recorder.span("cli.import"):
            self._inner.exec_module(module)
        self._probe.apply(module)


@contextmanager
def probes(recorder):
    """Install the layer probes for the duration of the block."""
    applied = []

    def apply(module):
        if module.__name__ not in watched:
            return
        for owner, name, raw, replacement in _patch_targets(module,
                                                            recorder):
            setattr(owner, name, replacement)
            applied.append((owner, name, raw))

    watched = {module for module, *_ in _TIMED}
    for name in sorted(watched & set(sys.modules)):
        apply(sys.modules[name])
    finder = _ImportProbe(recorder, apply)
    sys.meta_path.insert(0, finder)
    try:
        yield recorder
    finally:
        sys.meta_path.remove(finder)
        for owner, name, raw in reversed(applied):
            setattr(owner, name, raw)
