"""Perf smoke benchmark — scalar loop vs. compiled-trace batch engine.

Times the full-suite sweep (every Fig. 8 kernel × 4 policies × 3 margins)
through the per-record test oracle (``tests/oracle.py``, the scalar
reference loop) and ``Session.evaluate_results`` (the compiled-trace
batch engine), verifies the results are bit-identical, and writes both
timings to ``BENCH_evaluate.json`` at the repository root so the
performance trajectory is tracked PR over PR.

Runs standalone (``python benchmarks/bench_perf_evaluate.py``) and under
pytest (``pytest benchmarks/bench_perf_evaluate.py``).
"""

import importlib.util
import json
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from conftest import publish  # noqa: E402

from repro.api import Session  # noqa: E402
from repro.core import DcaConfig, DynamicClockAdjustment  # noqa: E402
from repro.dta.compiled import (  # noqa: E402
    clear_compiled_cache,
    set_trace_store,
)
from repro.flow.characterize import CharacterizationResult  # noqa: E402
from repro.lab.scenario import (  # noqa: E402
    ConfigSpec,
    materialize_configs,
)
from repro.obs.host import host_metadata  # noqa: E402
from repro.utils.tables import format_table  # noqa: E402
from repro.workloads.suite import benchmark_suite  # noqa: E402

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_evaluate.json"

ORACLE_PATH = pathlib.Path(__file__).parent.parent / "tests" / "oracle.py"

MARGINS = (0.0, 5.0, 10.0)


POLICY_NAMES = ("instruction", "ex-only", "two-class", "genie")


def _sweep_configs(design, lut):
    """One config per policy × margin, materialised the way ``Session``
    and the sweep runner do (one shared factory per policy name, so the
    batch gathers each policy once per program) from the canonical policy
    registry (``DynamicClockAdjustment.make_policy``)."""
    dca = DynamicClockAdjustment(
        config=DcaConfig(variant=design.variant),
        characterization=CharacterizationResult(design=design, lut=lut),
    )
    return materialize_configs(
        [
            ConfigSpec(policy=name, margin_percent=margin)
            for name in POLICY_NAMES
            for margin in MARGINS
        ],
        dca,
    )


def _load_oracle():
    """``tests/oracle.py``, loaded by file path so that ``tests/`` never
    goes on ``sys.path``, where its ``conftest`` could shadow this
    directory's."""
    spec = importlib.util.spec_from_file_location("oracle", ORACLE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_perf_comparison(design, lut):
    """Time the same full sweep both ways; returns the metrics dict.

    The artifact store is detached for the measurement: this bench times
    the engine itself (simulation + compilation + array evaluation), not
    store loads — warm-store timings are `bench_perf_sweep.py`'s job.
    """
    programs = benchmark_suite()
    configs = _sweep_configs(design, lut)
    vector = Session.for_design(design, lut=lut)
    oracle = _load_oracle()

    previous_store = set_trace_store(None)
    clear_compiled_cache()   # charge compilation to the batch timing
    start = time.perf_counter()
    batch_grid = vector.evaluate_results(programs, configs)
    batch_seconds = time.perf_counter() - start

    start = time.perf_counter()
    scalar_grid = oracle.evaluate_grid(programs, design, configs)
    scalar_seconds = time.perf_counter() - start
    set_trace_store(previous_store)

    mismatches = 0
    for scalar_row, batch_row in zip(scalar_grid, batch_grid):
        for scalar, batch in zip(scalar_row, batch_row):
            if (
                scalar.total_time_ps != batch.total_time_ps
                or scalar.min_period_ps != batch.min_period_ps
                or scalar.max_period_ps != batch.max_period_ps
                or scalar.switch_rate != batch.switch_rate
            ):
                mismatches += 1

    return {
        "programs": len(programs),
        "configs": len(configs),
        "evaluations": len(programs) * len(configs),
        "total_cycles": sum(r.num_cycles for r in batch_grid[0]),
        "scalar_seconds": round(scalar_seconds, 3),
        "batch_seconds": round(batch_seconds, 3),
        "speedup": round(scalar_seconds / batch_seconds, 2),
        "mismatches": mismatches,
        "host": host_metadata(),
    }


def report(metrics):
    table = format_table(
        ["Engine", "Wall time", "Evaluations"],
        [
            ("per-record oracle loop", f"{metrics['scalar_seconds']:.2f} s",
             metrics["evaluations"]),
            ("compiled-trace batch", f"{metrics['batch_seconds']:.2f} s",
             metrics["evaluations"]),
            ("speedup", f"{metrics['speedup']:.1f}x", "-"),
        ],
        title="Perf — full-suite sweep, scalar vs. batch engine",
    )
    BENCH_JSON.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    publish("perf_evaluate", table + f"\n  wrote {BENCH_JSON.name}")
    return table


def test_perf_evaluate(design, lut):
    metrics = run_perf_comparison(design, lut)
    report(metrics)
    assert metrics["mismatches"] == 0
    # the tentpole acceptance bar: >= 10x on the full-suite sweep
    assert metrics["speedup"] >= 10.0, metrics


if __name__ == "__main__":
    session = Session()
    metrics = run_perf_comparison(session.design, session.lut)
    report(metrics)
    sys.exit(0 if metrics["mismatches"] == 0 else 1)
