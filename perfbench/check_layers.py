"""The benchmark's own test: layer coverage and time accounting.

Usage, from the root of a checkout::

    python3 perfbench/check_layers.py

Runs every workload traced (seed ``SEED``, ``SECONDS`` per run) and
checks, with exact counts, that each one stresses the layers its
rationale names and bypasses the others; that those layers carry most
of its traced op time; that every op is correct and safe; and that the
layer self times plus ``unattributed_s`` account for the op wall time
without exceeding it.  Exits 1 on any failure.
"""

import json
import subprocess
import sys

STORE_FIELDS = ("store.hits", "store.misses", "store.corrupt",
                "store.bytes_written", "store.save_s", "store.load_s")
SIM_FIELDS = ("sim.simulations", "sim.decode_s", "sim.iss_s",
              "sim.reconstruct_s", "dta.compile_s", "dta.delays_s")

#: Per workload: counts that must be exactly zero, counts that must be
#: positive, exact counts, and the layers that must carry most of the
#: traced op time.
EXPECTED = {
    "sweep_first": {
        "zero": ("store.corrupt", "stream.windows", "sim.fallbacks"),
        "positive": ("characterize.programs", "sim.simulations",
                     "store.misses", "store.bytes_written"),
        "exact": {"evaluate.calls": 72},
        "dominant": ("cli.interp_s", "cli.import_s", "characterize.busy_s",
                     "sim.decode_s", "sim.iss_s", "sim.reconstruct_s",
                     "dta.compile_s", "dta.delays_s", "store.save_s"),
    },
    "sweep_repeat": {
        "zero": ("characterize.programs", "store.misses", "store.corrupt",
                 "stream.windows") + SIM_FIELDS,
        "positive": ("store.hits",),
        "exact": {"evaluate.calls": 72},
        "dominant": ("cli.interp_s", "cli.import_s", "store.load_s"),
    },
    "evaluate_grid": {
        "zero": ("characterize.programs", "stream.windows")
        + STORE_FIELDS + SIM_FIELDS,
        "positive": (),
        "exact": {"evaluate.calls": 720},
        "dominant": ("clocking.make_policy_s", "clocking.periods_s",
                     "evaluate.safety_s"),
    },
    "stream_random": {
        "zero": ("characterize.programs", "evaluate.calls", "sim.fallbacks")
        + STORE_FIELDS,
        "positive": ("stream.windows",),
        "exact": {"sim.simulations": 12},
        "dominant": ("sim.decode_s", "sim.iss_s", "sim.reconstruct_s",
                     "dta.compile_s", "dta.delays_s"),
    },
}

SECONDS = 4
SEED = 7

#: The suite workloads, on which the instruction LUT must never violate.
SUITE = ("sweep_first", "sweep_repeat", "evaluate_grid")


def check(workload, metrics):
    expected = EXPECTED[workload]
    value = {name: metric["value"] for name, metric in metrics.items()}
    errors = []
    for name in expected["zero"]:
        if value[name] != 0:
            errors.append(f"{name} = {value[name]}, expected 0")
    for name in expected["positive"]:
        if not value[name] > 0:
            errors.append(f"{name} = {value[name]}, expected > 0")
    for name, count in expected["exact"].items():
        if value[name] != count:
            errors.append(f"{name} = {value[name]}, expected {count}")
    if value["fail_ratio"] != 0:
        errors.append(f"fail_ratio = {value['fail_ratio']}")
    if workload in SUITE and value["model.violation_cycles"] != 0:
        errors.append(
            f"model.violation_cycles = {value['model.violation_cycles']}"
        )
    layer_total = sum(v for name, v in value.items()
                      if name.endswith("_s") and name != "unattributed_s")
    wall = layer_total + value["unattributed_s"]
    if value["unattributed_s"] < 0:
        errors.append(f"layer self times exceed the op wall time by "
                      f"{-value['unattributed_s']:.6f} s")
    dominant = sum(value[name] for name in expected["dominant"])
    if not dominant > 0.5 * wall:
        errors.append(f"rationale layers carry {dominant:.4f} s of "
                      f"{wall:.4f} s, expected most")
    return errors, dominant / wall


def main():
    failures = 0
    for workload in EXPECTED:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(SECONDS),
             "--trace", "1"],
            capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"FAIL {workload}: exit {proc.returncode}\n{proc.stderr}")
            failures += 1
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        errors, share = check(workload, result["metrics"])
        if not result["correct"]:
            errors.append(f"incorrect output: {proc.stderr[-1000:]}")
        status = "FAIL" if errors else "ok  "
        print(f"{status} {workload}: {result['attempted']} ops, rationale "
              f"layers carry {share:.0%} of traced op time")
        for error in errors:
            print(f"     {error}")
        failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
