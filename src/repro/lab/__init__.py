"""repro.lab — sweep orchestration with a persistent artifact store.

The lab turns one-shot in-process evaluation into an experiment system:

- :mod:`repro.lab.store` — a content-addressed on-disk cache for compiled
  pipeline traces, characterised delay LUTs and merged sweep results,
  keyed by program content × design operating point × schema version.
  Cross-process runs (CLI, CI, workers) skip simulation and
  characterisation entirely once the store is warm.
- :mod:`repro.lab.scenario` — declarative :class:`ScenarioGrid` specs
  that cross-product policies × generators × margins × voltages ×
  variants × workloads (loadable from JSON/TOML) into the
  ``SweepConfig`` stream the batch engine consumes.
- :mod:`repro.lab.runner` — a multiprocessing :class:`SweepRunner` that
  shards (design point, program) work units across workers, warms the
  store, merges results deterministically, resumes interrupted runs from
  a manifest, and emits JSON/CSV for dashboards.
"""

from repro._lazy import lazy_exports

__all__ = [
    "ArtifactStore",
    "ConfigSpec",
    "DesignPoint",
    "ScenarioGrid",
    "StoreStats",
    "SweepRunner",
    "SweepRunResult",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "runner": ("SweepRunner", "SweepRunResult"),
    "scenario": ("ConfigSpec", "DesignPoint", "ScenarioGrid"),
    "store": ("ArtifactStore", "StoreStats"),
})
