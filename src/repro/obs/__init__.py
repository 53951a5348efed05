"""repro.obs — spans, counters, and telemetry for every workflow.

Zero-dependency observability for the engine stack:

- :mod:`repro.obs.trace` — span-based tracer (nested wall/CPU-timed
  spans; no-op singleton + guarded call sites when disabled);
- :mod:`repro.obs.metrics` — the process-wide counter registry that
  unifies store traffic, simulation counts and engine stats, with
  delta shipping/merging across multiprocessing shards;
- :mod:`repro.obs.export` — Chrome trace-event JSON, flat summaries,
  and the ``TELEMETRY`` :class:`~repro.api.frame.ResultFrame`;
- :mod:`repro.obs.progress` — the ``--progress`` per-unit stderr line;
- :mod:`repro.obs.host` — host metadata for ``BENCH_*.json``.

Entry points: ``Session(telemetry=...)``, ``repro sweep --trace`` /
``--progress``, and ``repro profile <grid>``.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Tracer",
    "span",
    "set_tracer",
    "get_tracer",
    "is_enabled",
    "merge_worker_spans",
    "metrics",
    "chrome_trace",
    "write_chrome_trace",
    "validate_chrome_trace",
    "summary_rows",
    "summary_csv",
    "telemetry_frame",
    "host_metadata",
    "UnitProgress",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "metrics": ("metrics",),
    "export": (
        "chrome_trace", "summary_csv", "summary_rows", "telemetry_frame",
        "validate_chrome_trace", "write_chrome_trace",
    ),
    "host": ("host_metadata",),
    "progress": ("UnitProgress",),
    "trace": (
        "Tracer", "get_tracer", "is_enabled", "merge_worker_spans",
        "set_tracer", "span",
    ),
})
