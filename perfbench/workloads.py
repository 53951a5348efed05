"""The benchmark's four workloads.

Each workload has a ``setup(seed, tmp)`` that builds its inputs and
warms what a user would already have warm, an ``op(state, recorder)``
that times one closed-loop operation (single client, ``jobs=1``) and
returns ``(seconds, output)``, a ``check(state, output)`` that
validates the output and returns ``(problems, rows)``, and a
``verify(state)`` that runs after the measured loop and returns how many
ops failed a check too costly to make per op.  ``recorder`` is ``None``
for untraced ops; a traced op returns its spans in ``output["spans"]``
(plus counts and wall seconds).

Why these four (each puts one layer on the blocking path and bypasses
the others):

- ``sweep_first``: a first-time user's whole ``repro sweep`` process on
  an empty store: import, characterisation, 18 simulations, store
  writes, evaluation.  Sim, compile and store-save work.
- ``sweep_repeat``: the same process on a warm store: zero simulations
  and zero characterisations, so CLI import and store loads dominate.
- ``evaluate_grid``: in-process 18 programs x 40 configs over resident
  traces: policy gather, generator quantisation and the safety check,
  no sim and no store.
- ``stream_random``: in-process streaming over seeded programs nobody
  has seen, from empty trace and decode caches, no store: ISS,
  reconstruction and trace compile.  The programs are also held-out
  data for the instruction LUT.
"""

import functools
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

import layers

ROOT = pathlib.Path.cwd()
HERE = pathlib.Path(__file__).resolve().parent
GRID = ROOT / "examples" / "grids" / "paper_fig8.json"
REFERENCE = HERE / "reference.json"

#: Programs in the Fig. 8 suite, i.e. simulations a cold fig8 sweep runs.
SUITE_PROGRAMS = 18

EVALUATE_GRID = {
    "policies": ["instruction", "ex-only", "two-class", "genie", "static"],
    "margins": [0.0, 2.0, 5.0, 8.0],
    "generators": ["ideal", "ring"],
}
EVALUATE_ROWS = SUITE_PROGRAMS * 40       # 5 policies x 4 margins x 2 gens
STREAM_POLICIES = ["instruction", "genie"]
STREAM_WINDOW = 256
STREAM_PROGRAMS = {"count": 12, "length": 400, "repeats": 2}


def digest(payload):
    """SHA-256 of canonical JSON (wall-clock fields already removed)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.cache
def reference():
    """The committed output digests (``make_reference.py`` writes them)."""
    return json.loads(REFERENCE.read_text())


def model_rows(rows):
    """The instruction-LUT rows at 0 % margin on the ideal generator —
    the configuration behind the paper's headline figure."""
    return [
        row for row in rows
        if row["policy"] == "instruction" and row["generator"] == "ideal"
        and row["margin_percent"] == 0.0
    ]


def violation_cycles(rows):
    """Distinct (program, cycle) pairs where an applied period undercut
    an excited delay."""
    cycles = set()
    for row in rows:
        for violation in row["violations"]:
            cycles.add((row["program"], violation["cycle"]))
    return len(cycles)


# -- the repro CLI as a subprocess -----------------------------------------


def _env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def _sweep_args(store, out):
    return ["sweep", "--grid", str(GRID), "--store", str(store),
            "--json", str(out)]


def _spawn(args, out, start):
    """Run one process to completion; returns ``(seconds, output)``,
    the seconds counted from ``start``.

    ``os.wait4`` reaps it, so ``output["rss_mb"]`` is the peak RSS of
    this process alone.
    """
    errors = out.with_suffix(".stderr")
    with open(errors, "wb") as stderr:
        proc = subprocess.Popen(args, cwd=ROOT, env=_env(),
                                stdout=subprocess.DEVNULL, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    output = {"code": proc.returncode, "stderr": errors.read_bytes(),
              "json": out, "rss_mb": usage.ru_maxrss / 1024}
    errors.unlink()
    return seconds, output


def run_sweep(store, out, recorder=None):
    """One ``repro sweep`` process; returns ``(seconds, output)``.

    A traced op runs ``cli_probe.py`` instead of ``python -m repro``: the
    same CLI entry point with the layer probes installed after
    ``import repro.cli``.
    """
    start = time.perf_counter()
    if recorder is None:
        return _spawn([sys.executable, "-m", "repro",
                       *_sweep_args(store, out)], out, start)
    spans_out = out.with_suffix(".spans.json")
    seconds, output = _spawn(
        [sys.executable, str(HERE / "cli_probe.py"), str(spans_out),
         repr(start), *_sweep_args(store, out)], out, start,
    )
    output["wall"] = seconds
    if spans_out.exists():
        probe = json.loads(spans_out.read_text())
        spans_out.unlink()
        output["spans"] = probe["spans"]
        output["counts"] = probe["counts"]
    return seconds, output


def _warm_up_sweep(store, out):
    """An untimed sweep (the ops check outputs; this checks it ran)."""
    _, output = run_sweep(store, out)
    if output["code"] != 0:
        raise RuntimeError(
            "warm-up sweep failed: "
            + output["stderr"].decode(errors="replace")[-400:]
        )
    out.unlink()


def _sweep_problems(output):
    """Exit status and row digest of one sweep op; ``(problems, doc)``."""
    if output["code"] != 0:
        tail = output["stderr"].decode(errors="replace")[-400:]
        return [f"exit {output['code']}: {tail}"], None
    doc = json.loads(output["json"].read_text())
    output["json"].unlink()
    problems = []
    if digest(doc["results"]) != reference()["sweep"]:
        problems.append("sweep rows differ from the reference digest")
    return problems, doc


class Workload:
    in_process = False

    def verify(self, state):
        return 0


class SweepFirst(Workload):
    name = "sweep_first"
    in_process = False

    def setup(self, seed, tmp):
        # one throwaway cold sweep: byte-compiles the sources and fills
        # the page cache, which every later process then finds warm
        store = tmp / "warmup-store"
        _warm_up_sweep(store, tmp / "warmup.json")
        shutil.rmtree(store, ignore_errors=True)
        return {"tmp": tmp, "count": 0}

    def op(self, state, recorder=None):
        state["count"] += 1
        store = state["tmp"] / f"store-{state['count']}"
        result = run_sweep(store, state["tmp"] / "op.json", recorder)
        shutil.rmtree(store, ignore_errors=True)
        return result

    def check(self, state, output):
        problems, doc = _sweep_problems(output)
        if doc is None:
            return problems, []
        if doc["simulations"] != SUITE_PROGRAMS:
            problems.append(
                f"cold sweep ran {doc['simulations']} simulations, "
                f"expected {SUITE_PROGRAMS}"
            )
        return problems, doc["results"]


class SweepRepeat(Workload):
    name = "sweep_repeat"
    in_process = False

    def setup(self, seed, tmp):
        store = tmp / "store"
        shutil.rmtree(store, ignore_errors=True)
        _warm_up_sweep(store, tmp / "warmup.json")
        return {"tmp": tmp, "store": store}

    def op(self, state, recorder=None):
        return run_sweep(state["store"], state["tmp"] / "op.json", recorder)

    def check(self, state, output):
        problems, doc = _sweep_problems(output)
        if doc is None:
            return problems, []
        if doc["simulations"] != 0:
            problems.append(f"warm sweep ran {doc['simulations']} "
                            "simulations")
        for kind in ("trace", "lut"):
            misses = doc["store"][kind]["misses"]
            if misses:
                problems.append(f"warm sweep: {misses} {kind} misses")
        return problems, doc["results"]


# -- in-process workloads ----------------------------------------------------


def _cold_session():
    """A Session with its LUT characterised, starting from empty
    in-process trace and decode caches."""
    from repro.api import Session
    from repro.dta.compiled import clear_compiled_cache
    from repro.sim.predecode import clear_images

    clear_compiled_cache()
    clear_images()
    session = Session()
    session.lut
    return session


def _in_process(call, recorder):
    """Time ``call()``; under a recorder, inside the probes and a root
    span whose self time is the unattributed remainder."""
    if recorder is None:
        start = time.perf_counter()
        result = call()
        return time.perf_counter() - start, {"result": result}
    from repro.obs import metrics

    windows = metrics.get("stream.windows")
    with layers.probes(recorder):
        with recorder.span(layers.ROOT):
            result = call()
    root = recorder.spans[0]
    recorder.counts["stream.windows"] = (
        metrics.get("stream.windows") - windows
    )
    return root[2] - root[1], {
        "result": result, "wall": root[2] - root[1],
        "spans": recorder.spans, "counts": recorder.counts,
    }


class EvaluateGrid(Workload):
    name = "evaluate_grid"
    in_process = True

    def setup(self, seed, tmp):
        from repro.workloads.suite import benchmark_suite

        state = {"session": _cold_session(), "programs": benchmark_suite()}
        # compile every trace and run the op once: the traces are
        # resident and lazy tables built before timing starts
        self.op(state)
        return state

    def op(self, state, recorder=None):
        session, programs = state["session"], state["programs"]
        return _in_process(
            lambda: session.evaluate(programs, check_safety=True,
                                     **EVALUATE_GRID),
            recorder,
        )

    def check(self, state, output):
        frame = output["result"]
        problems = []
        if len(frame) != EVALUATE_ROWS:
            problems.append(f"{len(frame)} rows, expected {EVALUATE_ROWS}")
        if digest(frame.to_dict()) != reference()["evaluate_grid"]:
            problems.append("frame differs from the reference digest")
        return problems, frame.to_rows()


def stream_programs(seed):
    from repro.stream.sources import random_source

    return list(random_source(seed, **STREAM_PROGRAMS))


def offline_digest(state):
    """Digest of the offline ``Session.evaluate`` frame over the stream
    programs, which the streaming frame must match byte for byte."""
    offline = state["session"].evaluate(state["programs"],
                                        policies=STREAM_POLICIES)
    return digest(offline.to_dict())


class StreamRandom(Workload):
    name = "stream_random"
    in_process = True

    def setup(self, seed, tmp):
        # no warm-up op: every op empties the trace and decode caches
        # first, so the first op does the same work as the rest
        return {"session": _cold_session(), "programs": stream_programs(seed),
                "seed": seed, "unreferenced": []}

    def op(self, state, recorder=None):
        from repro.dta.compiled import clear_compiled_cache
        from repro.sim.predecode import clear_images
        from repro.stream import StreamingSession

        clear_compiled_cache()
        clear_images()
        session, programs = state["session"], state["programs"]
        return _in_process(
            lambda: StreamingSession(
                session, window_cycles=STREAM_WINDOW
            ).evaluate(programs, policies=STREAM_POLICIES),
            recorder,
        )

    def check(self, state, output):
        frame = output["result"]
        found = digest(frame.to_dict())
        expected = reference()["stream_random"].get(str(state["seed"]))
        if expected is None:
            # a seed without a committed digest: ``verify`` compares the
            # frame with the offline engine once the loop is over
            state["unreferenced"].append(found)
            return [], frame.to_rows()
        if found != expected:
            return (["stream frame differs from the reference digest"],
                    frame.to_rows())
        return [], frame.to_rows()

    def verify(self, state):
        if not state["unreferenced"]:
            return 0
        offline = offline_digest(state)
        return sum(found != offline for found in state["unreferenced"])


WORKLOADS = {
    workload.name: workload
    for workload in (SweepFirst(), SweepRepeat(), EvaluateGrid(),
                     StreamRandom())
}
