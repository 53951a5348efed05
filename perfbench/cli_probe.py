"""A traced ``repro`` CLI process (the sweep workloads' traced ops).

Usage::

    python perfbench/cli_probe.py SPANS_OUT SPAWN_TIME <repro CLI args>

Runs the same entry point as ``python -m repro``, with the layer probes
installed right after ``import repro.cli``, and writes the spans it kept
in memory to ``SPANS_OUT`` at the end.  ``SPAWN_TIME`` is the parent's
``time.perf_counter()`` just before the spawn (the clock is system-wide
on Linux), so interpreter start-up is a span of its own.
"""

import time

STARTED = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import layers  # noqa: E402


def main():
    spans_out, spawn = sys.argv[1], float(sys.argv[2])
    recorder = layers.Recorder()
    recorder.add("cli.interp", spawn, STARTED)
    with recorder.span("cli.import"):
        import repro.cli
    with layers.probes(recorder):
        with recorder.span(layers.ROOT):
            code = repro.cli.main(sys.argv[3:])
    with open(spans_out, "w") as handle:
        json.dump({"spans": recorder.spans, "counts": recorder.counts},
                  handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
