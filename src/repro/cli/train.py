"""``repro train``: fit a learned clock policy on a scenario grid."""

import json
import pathlib
import sys


def add_arguments(parser):
    parser.add_argument("--grid", required=True,
                        help="scenario grid file (.json/.toml): its "
                             "design points x workloads are the training "
                             "corpus")
    parser.add_argument("-o", "--out", default="model.npz",
                        help="model artifact path (default: model.npz); "
                             "deploy it as --policy learned:<path>")
    parser.add_argument("--store",
                        help="artifact-store directory (traces/LUTs "
                             "cached, model content-addressed into it)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for the training sweep")
    parser.add_argument("--seed", type=int, default=0,
                        help="training seed, recorded in the artifact "
                             "(default: 0)")
    parser.add_argument("--model", default="tree",
                        choices=["tree", "logistic"],
                        help="predictor kind (default: tree)")
    parser.add_argument("--max-depth", type=int, default=12)
    parser.add_argument("--min-samples-leaf", type=int, default=32)
    parser.add_argument("--window", type=int, default=8,
                        help="recent-excitation window in cycles")
    parser.add_argument("--margin", type=float, default=0.0,
                        help="calibration safety margin in percent")
    parser.add_argument("--report",
                        help="write train+eval metrics as JSON "
                             "(e.g. BENCH_train.json)")
    parser.add_argument("--no-eval", action="store_true",
                        help="skip the learned-vs-static self-evaluation")


def run(args):
    """Train a learned clock policy on a scenario grid (repro.ml).

    Writes the model artifact to ``--out``, content-addresses it into
    the store when one is given, then (unless ``--no-eval``) deploys it
    through :class:`Session` on the full benchmark suite: the run fails
    (exit 1) if the learned policy violates timing under genie safety
    replay or does not beat the static baseline's mean effective
    frequency.  ``--report`` writes the train+eval metrics as JSON
    (the CI ``ml-smoke`` artifact, ``BENCH_train.json``).
    """
    from repro.lab.scenario import ScenarioGrid
    from repro.ml.train import TrainerConfig, train_policy
    from repro.obs.host import host_metadata

    grid = ScenarioGrid.from_file(args.grid)
    try:
        config = TrainerConfig(
            model=args.model, seed=args.seed, max_depth=args.max_depth,
            min_samples_leaf=args.min_samples_leaf, window=args.window,
            calibration_margin_percent=args.margin,
        )
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    store = args.store or None
    outcome = train_policy(
        grid, config, store=store, jobs=args.jobs,
        progress=lambda line: print(line, file=sys.stderr),
    )
    model = outcome.model
    out = args.out
    model.save(out)
    print(f"wrote {out} ({model.kind}, {model.num_leaves} leaves, "
          f"{outcome.report['train_rows']} training rows, seed "
          f"{config.seed})")
    report = {"train": outcome.report, "host": host_metadata()}
    if store:
        from repro.lab.store import ArtifactStore

        name = f"train:{grid.fingerprint()}:{config.seed}:{config.model}"
        ArtifactStore(store).save_model(name, model)
        report["store_model"] = name
        print(f"stored model artifact {name!r} in {store}")

    exit_code = 0
    if not args.no_eval:
        report["eval"], exit_code = _self_evaluate(args, grid, store, out)
    if args.report:
        pathlib.Path(args.report).write_text(
            json.dumps(report, indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {args.report}")
    return exit_code


def _self_evaluate(args, grid, store, out):
    """Deploy the model on the full suite against the static baseline;
    ``(report, exit code)``."""
    from repro.api import Session
    from repro.utils.tables import format_table

    point = grid.design_points()[0]
    session = Session(
        variant=point.variant, voltage=point.voltage, store=store,
        jobs=args.jobs,
    )
    spec = f"learned:{out}"
    frame = session.evaluate(
        None, policies=[spec, "static"], check_safety=True
    )
    summary = frame.group_by("policy", {
        "mhz": ("effective_frequency_mhz", "mean"),
        "speedup": ("speedup_percent", "mean"),
        "speedup_p95": ("speedup_percent", "p95"),
        "violations": ("num_violations", "sum"),
    })
    rows = {row["policy"]: row for row in summary.iter_rows()}
    learned, static = rows[spec], rows["static"]
    print(format_table(
        ["Policy", "Avg. [MHz]", "Avg. speedup", "p95 speedup",
         "Violations"],
        [
            (policy, f"{row['mhz']:.0f}", f"{row['speedup']:+.1f}%",
             f"{row['speedup_p95']:+.1f}%", f"{int(row['violations'])}")
            for policy, row in (("learned", learned), ("static", static))
        ],
        title=(f"Learned vs static @ {point.label}: "
               f"{len(frame.distinct('program'))} programs"),
    ))
    safe = learned["violations"] == 0
    faster = learned["mhz"] > static["mhz"]
    report = {
        "design_point": point.label,
        "programs": len(frame.distinct("program")),
        "learned": learned,
        "static": static,
        "safe": safe,
        "faster_than_static": faster,
    }
    exit_code = 0
    if not safe:
        print(f"FAIL: learned policy caused "
              f"{int(learned['violations'])} timing violations",
              file=sys.stderr)
        exit_code = 1
    if not faster:
        print("FAIL: learned policy does not beat the static "
              "baseline's mean effective frequency", file=sys.stderr)
        exit_code = 1
    return report, exit_code
