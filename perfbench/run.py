"""The repository benchmark: end-to-end and per-layer metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload sweep_first --seed 1 \\
        --seconds 25 --trace 0

Workloads (``workloads.py`` says why each was chosen): ``sweep_first``,
``sweep_repeat``, ``evaluate_grid``, ``stream_random``.  Each runs a
closed loop with one client and ``jobs=1`` for ``--seconds``: the next
op starts only when the previous one has finished.  Every op's output is
checked against the committed digests in ``reference.json``.

``--trace 0`` prints the end-to-end metrics, measured with no probes
installed.  ``--trace 1`` alternates untraced and traced ops and prints
the per-layer metrics: the traced ops' mean self time per layer (from
the benchmark-side timers in ``layers.py``), counts, the tracing
overhead and the time no layer claims.

End-to-end times are *calibrated* seconds.  The host this benchmark was
tuned on drifts by +-25 % in CPU speed over minutes (other tenants share
the machine), so a fixed pure-Python loop is timed after every op and
set-up.  Each op and each set-up is scaled by ``CAL_REF_S`` over the
mean of the loop times on either side of it: seconds on a host where
the loop takes ``CAL_REF_S``.  The loop runs no ``repro`` code and allocates no
tracked objects, so a change to the program does not move it.  Raw host
seconds are in the context line.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it records the host, the calibration, raw timings and the sample
counts.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import sys
import time
import traceback

import layers
from workloads import GRID, WORKLOADS, model_rows, violation_cycles

ROOT = pathlib.Path.cwd()

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: Ops every run makes, however long they take.
MIN_OPS = 4

#: What the simulated figures are validated against, printed every run.
MODEL_NOTE = (
    "The timing model is synthetic (a generated netlist and excitation "
    "model); it is validated only against the paper's published averages "
    "in repro.paperdata, e.g. DYNAMIC_SPEEDUP_PERCENT."
)


def _import_repro():
    """Import the checkout's own ``src/repro``; ``None`` when the
    checkout has no program to measure."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        return None
    return repro


#: Iterations of the calibration loop, and its duration on the host the
#: bounds were set on (the unit end-to-end seconds are scaled to).
CAL_LOOP = 100_000
CAL_REF_S = 0.006


def calibrate():
    """Best of three runs of a fixed pure-Python loop."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for value in range(CAL_LOOP):
            total += value * value
        best = min(best, time.perf_counter() - start)
    return best


class Calibrated:
    """Converts host seconds to reference-host seconds."""

    def __init__(self):
        self.loops = [calibrate()]

    def scale(self, seconds):
        """An op or a set-up, by the calibration loops right before and
        after it."""
        self.loops.append(calibrate())
        host = (self.loops[-2] + self.loops[-1]) / 2
        return seconds * CAL_REF_S / host


def reset_peak_rss():
    """Restart this process's peak-RSS count from its current RSS."""
    with open("/proc/self/clear_refs", "w") as handle:
        handle.write("5")


def peak_rss_mb():
    """This process's peak RSS since the last ``reset_peak_rss``."""
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def host_context(workload, seed):
    from repro.obs.host import host_metadata

    return {
        "workload": workload,
        "seed": seed,
        "host": host_metadata(engine="vector"),   # cores from affinity
        "model": MODEL_NOTE,
    }


def _quantile(values, fraction):
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _layer_breakdown(output):
    """Per-layer self seconds, counts and the unattributed remainder of
    one traced op."""
    totals = layers.self_times(output["spans"])
    breakdown = {f"{layer}_s": totals.get(layer, 0.0)
                 for layer in layers.TIME_LAYERS}
    counts = output["counts"]
    breakdown.update({name: counts.get(name, 0) for name in layers.COUNTS})
    breakdown["unattributed_s"] = output["wall"] - sum(
        totals.get(layer, 0.0) for layer in layers.TIME_LAYERS
    )
    return breakdown


def _model_metrics(rows):
    from repro.paperdata import DYNAMIC_SPEEDUP_PERCENT

    selected = model_rows(rows)
    mean = statistics.fmean(row["speedup_percent"] for row in selected)
    return {
        "model.paper_err_pp": abs(mean - DYNAMIC_SPEEDUP_PERCENT),
        "model.violation_cycles": violation_cycles(selected),
    }


def measure(workload, seed, seconds, trace, tmp):
    """Set up, run the closed loop, and reduce to the metric dict.

    Returns ``(correct, attempted, failed, metrics, facts)``; ``facts``
    (sample counts, calibration, raw timings) goes to the context line.
    """
    clock = Calibrated()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed, tmp)
        raw_setups.append(time.perf_counter() - start)
        setups.append(clock.scale(raw_setups[-1]))

    untraced, traced, raw, rates, breakdowns = [], [], [], [], []
    child_rss = []
    failed = attempted = 0
    model = None
    if workload.in_process:
        # the peak of the ops alone, not of the set-ups before them
        reset_peak_rss()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or attempted < MIN_OPS:
        is_traced = bool(trace) and attempted % 2 == 1
        attempted += 1
        try:
            op_seconds, output = workload.op(
                state, layers.Recorder() if is_traced else None
            )
            scaled = clock.scale(op_seconds)
            problems, rows = workload.check(state, output)
        except Exception:
            failed += 1
            print(f"op {attempted} raised:\n{traceback.format_exc()}",
                  file=sys.stderr)
            continue
        if is_traced and "spans" not in output:
            problems.append("traced op returned no spans")
        if problems:
            # a wrong answer still took its time: keep the timing
            failed += 1
            print(f"op {attempted} failed: {problems}", file=sys.stderr)
            if not rows or (is_traced and "spans" not in output):
                continue
        if is_traced:
            traced.append(scaled)
            breakdown = _layer_breakdown(output)
            # the layers' self times must fit inside the op's wall time
            if breakdown["unattributed_s"] < -1e-3 * op_seconds:
                failed += 1
                print(f"op {attempted}: layer self times exceed the op's "
                      f"wall time by {-breakdown['unattributed_s']:.6f} s",
                      file=sys.stderr)
            breakdowns.append(breakdown)
        else:
            untraced.append(scaled)
            raw.append(op_seconds)
            if "rss_mb" in output:
                child_rss.append(output["rss_mb"])
        rates.append(sum(row["num_cycles"] for row in rows) / scaled)
        if model is None:
            model = _model_metrics(rows)
    if workload.in_process:
        rss_mb = peak_rss_mb()
    else:
        rss_mb = max(child_rss, default=0.0)
    failed += workload.verify(state)

    facts = {
        "samples": {"ops": attempted, "untraced": len(untraced),
                    "traced": len(traced), "setups": SETUP_REPEATS},
        "calibration": {"loop_s.median": statistics.median(clock.loops),
                        "ref_s": CAL_REF_S},
    }
    ok = bool(untraced) and (bool(traced) or not trace) and model is not None
    if not ok:
        return False, attempted, failed, {}, facts
    facts["raw"] = {"setup_s": statistics.median(raw_setups),
                    "op_s.p50": statistics.median(raw),
                    "op_s.p90": _quantile(raw, 0.9)}
    if not trace:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_s.p50": (statistics.median(untraced), "s"),
            "op_s.p90": (_quantile(untraced, 0.9), "s"),
            "cycles_per_s": (statistics.median(rates), "cycles/s"),
            "rss_peak_mb": (rss_mb, "MB"),
        }
        return failed == 0, attempted, failed, metrics, facts
    metrics = {}
    for name in breakdowns[0]:
        unit = ("s" if name.endswith("_s") else
                "bytes" if name.endswith("bytes_written") else "count")
        metrics[name] = (statistics.fmean(b[name] for b in breakdowns), unit)
    metrics["trace.overhead_pct"] = (
        (statistics.median(traced) / statistics.median(untraced) - 1.0)
        * 100.0, "%",
    )
    metrics["fail_ratio"] = (failed / attempted, "ratio")
    metrics["model.paper_err_pp"] = (model["model.paper_err_pp"], "pp")
    metrics["model.violation_cycles"] = (model["model.violation_cycles"],
                                         "count")
    return failed == 0, attempted, failed, metrics, facts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if _import_repro() is None:
        print(f"error: no repro sources under {ROOT / 'src'}; run from the "
              "root of a repository checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    if not GRID.is_file():
        print(f"error: missing scenario grid {GRID}", file=sys.stderr)
        return 2

    context = host_context(args.workload, args.seed)
    tmp = ROOT / ".perfbench-tmp" / str(os.getpid())
    tmp.mkdir(parents=True)
    try:
        correct, attempted, failed, metrics, facts = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            tmp,
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    context.update(facts)
    print(json.dumps({"context": context}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
