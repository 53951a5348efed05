"""repro.api — the public programmatic surface of the reproduction.

One facade, one result type
===========================

The paper's flow is one pipeline — characterise a design point, compile
traces, evaluate clock policies, check safety — and this package exposes
it through exactly two objects:

- :class:`Session` owns the cross-cutting context once (operating point,
  artifact store, worker count, cycle budget, store gc budget) and offers
  the whole pipeline as methods;
- :class:`ResultFrame` is the columnar result every workflow returns:
  structured NumPy columns under a stable schema, with ``iter_rows()``,
  ``to_json()``/``to_csv()``, filtering, group-by aggregation, and a
  lossless round-trip through the artifact store.

Quickstart
==========

    from repro.api import Session

    session = Session(voltage=0.70, store=".repro-store", jobs=4)

    # characterise once (cached in the store), evaluate the suite
    frame = session.evaluate(
        ["crc32", "matmult", "fib"],
        policies=["instruction", "genie"],
        margins=[0.0, 5.0],
    )
    print(frame.to_csv())

    # aggregate: average speedup per configuration
    summary = frame.group_by(
        "config", {"speedup": ("speedup_percent", "mean"),
                   "violations": ("num_violations", "sum")}
    )
    for row in summary.iter_rows():
        print(row)

    # orchestrated grid sweep (parallel, resumable, store-backed)
    result = session.sweep("grids/margins.json")
    result.frame.to_csv("sweep.csv")

    # one flat table for policy training: margins x voltages x policies
    table = session.training_table("grids/training.json")

Sessions are cheap to construct; the expensive artifacts
(characterised LUTs, compiled traces) live in the artifact store and are
shared across sessions, processes and CLI runs.

Stability
=========

``repro.api.__all__`` is the public-API contract — additions are fine,
renames/removals are breaking and guarded by
``tests/test_api_surface.py``.  :class:`Session` is the one entry point
of every workflow.
"""

from repro._lazy import lazy_exports

__all__ = [
    "Session",
    "ResultFrame",
    "Column",
    "EVALUATION_SCHEMA",
    "ADAPT_SCHEMA",
    "OVERSCALING_SCHEMA",
    "TRAINING_SCHEMA",
    "TELEMETRY_SCHEMA",
    "DEFAULT_OVERSCALE_FACTORS",
    "design_point_label",
    "evaluation_row",
    "result_from_row",
    "summarize_row",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "frame": (
        "ADAPT_SCHEMA", "EVALUATION_SCHEMA", "OVERSCALING_SCHEMA",
        "TELEMETRY_SCHEMA", "TRAINING_SCHEMA", "Column", "ResultFrame",
    ),
    "session": (
        "DEFAULT_OVERSCALE_FACTORS", "Session", "design_point_label",
        "evaluation_row", "result_from_row", "summarize_row",
    ),
})
