"""Process-wide counter/metric registry.

One flat, thread-safe ``name -> number`` map per process.  It unifies
the engine's historically scattered counters — per-store
:class:`~repro.lab.store.StoreStats` objects, the compiled-trace
engine's ``simulation_count`` proof counter and the predecode module
stats — behind a single namespace:

``store.<kind>.<event>``
    Mirrored from every ``StoreStats.record`` call in the process
    (all store objects feed the same registry).
``sim.simulations``
    Mirrored from :mod:`repro.dta.compiled`.
``sim.predecode.*``
    *Gathered live* from that module's own stats dict (it stays the
    owner; the registry view sums registry entries with module
    counters), so hot loops pay no extra per-increment cost.

"Process-safe" means cross-process by *delta shipping*, not shared
memory: a worker snapshots :func:`gather` at startup, computes
:func:`delta_since` when returning results through the existing
multiprocessing result channel, and the parent :func:`merge`\\ s the
delta into its registry.  That is the fix for the historical counter
loss where worker-side store hits and simulations simply vanished in
``--jobs N`` sweeps.
"""

import threading

__all__ = [
    "inc",
    "get",
    "snapshot",
    "gather",
    "delta_since",
    "merge",
    "reset",
]

_lock = threading.Lock()
_registry = {}


def inc(name, value=1):
    """Add ``value`` to counter ``name`` (creating it at zero)."""
    with _lock:
        _registry[name] = _registry.get(name, 0) + value


def get(name, default=0):
    """Current registry value of ``name`` (excludes live module stats —
    use :func:`gather` for the unified view)."""
    return _registry.get(name, default)


def snapshot():
    """Copy of the raw registry (mirrored + merged counters only)."""
    with _lock:
        return dict(_registry)


def gather():
    """The unified counter view: registry entries plus the live engine
    module counters, summed per name."""
    out = snapshot()
    # imported lazily: the engine modules import this module's inc()
    from repro.dta import compiled
    from repro.sim import predecode

    def _add(name, value):
        if value:
            out[name] = out.get(name, 0) + value

    for key, value in predecode.stats().items():
        _add(f"sim.predecode.{key}", value)
    _add("sim.simulations", compiled.simulation_count())
    return out


def delta_since(baseline):
    """Per-name difference between :func:`gather` now and a ``baseline``
    taken earlier with :func:`gather`; zero deltas are dropped so the
    payload shipped through the result channel stays small."""
    current = gather()
    delta = {}
    for name, value in current.items():
        change = value - baseline.get(name, 0)
        if change:
            delta[name] = change
    return delta


def merge(deltas):
    """Fold a worker's counter deltas into this process's registry."""
    if not deltas:
        return
    with _lock:
        for name, value in deltas.items():
            _registry[name] = _registry.get(name, 0) + value


def reset():
    """Clear the registry (module-owned counters keep their own
    ``reset_*`` entry points and are unaffected)."""
    with _lock:
        _registry.clear()
