"""Perf bench — sweep orchestration: cold vs. warm store vs. parallel.

Runs the full 18-kernel grid through :class:`repro.lab.SweepRunner` four
ways and writes the timings to ``BENCH_sweep.json`` at the repository
root (CI artifact, tracked PR over PR):

- **cold**: empty artifact store — pays characterisation + every
  pipeline simulation;
- **warm**: same store again — must re-simulate *nothing* (the store hit
  counters and the engine's simulation counter prove it);
- **serial-sim / parallel-sim**: traces evicted, LUT warm — the same
  simulation-bound workload serially and with ``--jobs 2``, which is the
  parallel-speedup measurement.

Every run's merged rows must be bit-identical to the serial in-process
``Session`` reference (independently characterised, no store).

Runs standalone (``python benchmarks/bench_perf_sweep.py``) and under
pytest (``pytest benchmarks/bench_perf_sweep.py``).
"""

import json
import os
import pathlib
import shutil
import sys
import tempfile
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from conftest import publish  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.dta.compiled import (  # noqa: E402
    clear_compiled_cache,
    reset_simulation_count,
    set_trace_store,
)
from repro.lab import ArtifactStore, ScenarioGrid  # noqa: E402
from repro.obs.host import host_metadata  # noqa: E402
from repro.sim import predecode  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_sweep.json"

#: PR 2's shipped cold-sweep wall time (scalar pipeline simulator +
#: record-path characterisation, single process) — the baseline the
#: vectorized two-phase engine and array characterisation are measured
#: against, tracked PR over PR in ``BENCH_sweep.json``.
PR2_BASELINE_COLD_SECONDS = 5.235

#: PR 6 budget: the cold full-suite sweep (empty store, in-process) must
#: finish under this on CI hardware.  Asserted where a second core
#: exists (single-core runners time everything noisily).
COLD_SWEEP_BUDGET_SECONDS = 0.2

GRID = ScenarioGrid(
    name="bench-perf-sweep",
    policies=("instruction", "two-class", "genie"),
    margins=(0.0, 5.0, 10.0),
    check_safety=True,      # exercise the delay matrices end to end
)                           # workloads=() -> the full Fig. 8 suite


def _reference_rows(grid):
    """Serial in-process Session rows: no store, no runner — the
    semantics every orchestrated run must reproduce bit-identically."""
    previous = set_trace_store(None)
    try:
        point = grid.design_points()[0]
        session = Session.for_design(
            point.build(), max_cycles=grid.max_cycles
        )
        frame = session.evaluate(
            grid.programs(), configs=grid.config_specs()
        )
        return frame.to_rows()
    finally:
        set_trace_store(previous)


def _timed_run(store_root, jobs):
    """One orchestrated run from a cold in-memory state."""
    clear_compiled_cache()
    reset_simulation_count()
    session = Session(store=ArtifactStore(store_root), jobs=jobs)
    start = time.perf_counter()
    outcome = session.sweep(GRID)
    seconds = time.perf_counter() - start
    return outcome, seconds


def _evict_traces(store_root):
    shutil.rmtree(pathlib.Path(store_root) / "traces", ignore_errors=True)


def _available_cores():
    """Cores this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:                           # pragma: no cover
        return os.cpu_count() or 1


def run_sweep_comparison(store_root=None):
    """Time cold/warm/serial-sim/parallel runs; returns the metrics dict."""
    owns_root = store_root is None
    if owns_root:
        store_root = tempfile.mkdtemp(prefix="repro-bench-store-")
    try:
        # the reference run is where the suite's decode + ISS work
        # happens (later runs reuse the process-level image cache, by
        # design — "cold" means cold *store*), so meter it there
        predecode.clear_images()
        predecode.reset_stats()
        reference = _reference_rows(GRID)
        decode_stats = predecode.stats()

        cold, cold_seconds = _timed_run(store_root, jobs=1)
        warm, warm_seconds = _timed_run(store_root, jobs=1)

        _evict_traces(store_root)
        serial, serial_seconds = _timed_run(store_root, jobs=1)
        _evict_traces(store_root)
        parallel, parallel_seconds = _timed_run(store_root, jobs=2)

        mismatches = sum(
            1
            for run in (cold, warm, serial, parallel)
            for row, expected in zip(run.rows, reference)
            if row != expected
        )

        warm_stats = warm.store_stats
        return {
            "decode_seconds": round(decode_stats["decode_seconds"], 4),
            "iss_seconds": round(decode_stats["iss_seconds"], 4),
            "parallel_fallback": parallel.parallel_fallback,
            "parallel_jobs_effective": parallel.jobs_effective,
            "programs": len(GRID.workload_specs()),
            "configs": len(GRID.config_specs()),
            "evaluations": GRID.num_evaluations,
            "jobs": 2,
            "cores": _available_cores(),
            "baseline_pr2_cold_seconds": PR2_BASELINE_COLD_SECONDS,
            "cold_speedup_vs_pr2": round(
                PR2_BASELINE_COLD_SECONDS / cold_seconds, 2
            ),
            "cold_seconds": round(cold_seconds, 3),
            "warm_seconds": round(warm_seconds, 3),
            "serial_sim_seconds": round(serial_seconds, 3),
            "parallel_sim_seconds": round(parallel_seconds, 3),
            "warm_speedup_vs_cold": round(cold_seconds / warm_seconds, 2),
            "parallel_speedup": round(serial_seconds / parallel_seconds, 2),
            "warm_simulations": warm.simulations,
            "warm_trace_hits": warm_stats.get("trace", "hits"),
            "warm_trace_misses": warm_stats.get("trace", "misses"),
            "warm_lut_misses": warm_stats.get("lut", "misses"),
            "mismatches": mismatches,
            "host": host_metadata(engine="vector"),
        }
    finally:
        if owns_root:
            shutil.rmtree(store_root, ignore_errors=True)


def report(metrics):
    table = format_table(
        ["Run", "Wall time", "Notes"],
        [
            ("cold store, jobs=1", f"{metrics['cold_seconds']:.2f} s",
             f"characterise + simulate everything "
             f"({metrics['cold_speedup_vs_pr2']:.1f}x vs PR 2's "
             f"{metrics['baseline_pr2_cold_seconds']:.2f} s)"),
            ("warm store, jobs=1", f"{metrics['warm_seconds']:.2f} s",
             f"{metrics['warm_simulations']} simulations, "
             f"{metrics['warm_trace_misses']} trace misses"),
            ("traces evicted, jobs=1",
             f"{metrics['serial_sim_seconds']:.2f} s", "serial baseline"),
            ("traces evicted, jobs=2",
             f"{metrics['parallel_sim_seconds']:.2f} s",
             ("in-process fallback (small run)"
              if metrics["parallel_fallback"]
              else f"{metrics['parallel_speedup']:.2f}x vs. serial")),
        ],
        title=(
            f"Perf — sweep orchestration, {metrics['programs']} programs "
            f"x {metrics['configs']} configs"
        ),
    )
    BENCH_JSON.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    publish("perf_sweep", table + f"\n  wrote {BENCH_JSON.name}")
    return table


def _parallel_ok(metrics):
    """jobs=2 must either win outright or take the recorded in-process
    fallback — a slower process pool is exactly the PR-2 regression."""
    return (
        metrics["parallel_fallback"]
        or metrics["parallel_speedup"] >= 1.0
    )


def test_perf_sweep():
    metrics = run_sweep_comparison()
    report(metrics)
    # every orchestrated run is bit-identical to in-process Session rows
    assert metrics["mismatches"] == 0, metrics
    # the warm store serves everything: zero simulations, zero misses
    assert metrics["warm_simulations"] == 0, metrics
    assert metrics["warm_trace_misses"] == 0, metrics
    assert metrics["warm_lut_misses"] == 0, metrics
    assert _parallel_ok(metrics), metrics
    # wall-clock budget, only meaningful on multi-core CI hardware
    if metrics["cores"] >= 2:
        assert (metrics["cold_seconds"]
                < COLD_SWEEP_BUDGET_SECONDS), metrics


if __name__ == "__main__":
    metrics = run_sweep_comparison()
    report(metrics)
    failed = (
        metrics["mismatches"]
        or metrics["warm_simulations"]
        or metrics["warm_trace_misses"]
        or not _parallel_ok(metrics)
        or (metrics["cores"] >= 2
            and metrics["cold_seconds"] >= COLD_SWEEP_BUDGET_SECONDS)
    )
    sys.exit(1 if failed else 0)
