"""Regenerate ``reference.json``, the committed output digests.

Usage, from the root of a checkout::

    python3 perfbench/make_reference.py

Run it only after an intentional change to the simulated results; the
benchmark fails every op whose output digest differs from these.
Digests cover the result rows without wall-clock fields.  Stream
digests are stored for seeds ``0 .. STREAM_SEEDS - 1``; any other seed is
still checked against the offline engine over the same programs.
"""

import json
import os
import shutil
import sys

import workloads
from run import ROOT, _import_repro
from workloads import WORKLOADS

#: Seeds whose stream_random frame digest is committed.
STREAM_SEEDS = 64


def main():
    if _import_repro() is None:
        print("error: run from the root of a repository checkout",
              file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench-tmp" / f"reference-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        _, output = workloads.run_sweep(tmp / "store", tmp / "out.json")
        if output["code"] != 0:
            print(output["stderr"].decode(errors="replace"),
                  file=sys.stderr)
            return 1
        sweep = json.loads(output["json"].read_text())["results"]

        grid = WORKLOADS["evaluate_grid"]
        _, output = grid.op(grid.setup(0, tmp))
        frame = output["result"]

        stream = WORKLOADS["stream_random"]
        streams = {}
        for seed in range(STREAM_SEEDS):
            state = stream.setup(seed, tmp)
            _, output = stream.op(state)
            found = workloads.digest(output["result"].to_dict())
            if found != workloads.offline_digest(state):
                print(f"seed {seed}: stream and offline frames differ",
                      file=sys.stderr)
                return 1
            streams[str(seed)] = found
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    workloads.REFERENCE.write_text(json.dumps({
        "sweep": workloads.digest(sweep),
        "evaluate_grid": workloads.digest(frame.to_dict()),
        "stream_random": streams,
    }, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
