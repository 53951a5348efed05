"""Command-line interface.

Exposes the main flows as subcommands::

    python -m repro kernels                    # list bundled workloads
    python -m repro asm program.s              # assemble + listing
    python -m repro run crc32                  # functional + cycle run
    python -m repro sta [--variant ...]        # static timing analysis
    python -m repro characterize -o lut.json   # full characterisation
    python -m repro evaluate crc32 --policy instruction [--lut lut.json]
    python -m repro table2 [--lut lut.json]    # Table II view of a LUT
    python -m repro store gc --store DIR --max-size 500M [--dry-run]
    python -m repro train --grid grid.json -o model.npz   # learn a policy
    python -m repro profile grid.json --jobs 4            # where time goes
    python -m repro serve --store .repro-store --port 8787  # sweep service
    python -m repro submit --grid grid.json --wait --tenant alice

``train`` fits a learned clock policy (ML-DFS, see :mod:`repro.ml`) on
a scenario grid's per-cycle genie ground truth, calibrates it for
safety, writes the model artifact and self-evaluates it against the
static baseline.  The result deploys anywhere a policy name is
accepted, as ``learned:<model.npz>``::

    python -m repro evaluate crc32 --policy learned:model.npz

A missing or corrupt model file exits with code 2 (naming the path)
before any simulation or characterisation runs.

Scenario grids run whole experiments through the parallel sweep runner
(:mod:`repro.lab`) with a persistent artifact store, e.g.::

    python -m repro sweep --grid grid.json --jobs 4 \\
        --store .repro-store --resume --json sweep.json --csv sweep.csv

where ``grid.json`` declares the axes to cross::

    {"name": "margins", "policies": ["instruction", "genie"],
     "margins": [0.0, 5.0], "voltages": [0.70, 0.80],
     "workloads": ["crc32", "matmult"]}

A warm store skips pipeline simulation and characterisation entirely;
``--resume`` continues an interrupted run from its manifest;
``--store-max-size 500M`` LRU-evicts the store down to a budget after
the merge, so long campaigns self-limit.

Observability (:mod:`repro.obs`): ``sweep --grid ... --trace out.json``
records spans from every layer — session, evaluate, compile, ISS, store,
including worker processes — into a Chrome trace-event file (open it at
``ui.perfetto.dev``); ``--progress`` renders a per-unit progress line
with an ETA on stderr (auto-disabled when stderr is not a TTY).
``profile`` runs a grid with tracing on and prints the per-phase
time/cache breakdown instead of the result table::

    python -m repro profile grid.json --jobs 4 --store .repro-store

    Span                  Count  Wall [ms]  CPU [ms]  Mean [ms]
    session.sweep             1     191.43     82.11    191.430
    sweep.unit_batch          6     180.02     71.40     30.003
    dta.compile              12     161.77     60.91     13.481
    iss.collect              12     120.45     52.00     10.038
    ...
    counters:
      sim.simulations = 12
      store.trace.hit = 24

The sweep service (:mod:`repro.serve`) turns the same grid files into a
multi-tenant HTTP service over one shared store: ``serve`` starts it,
``submit`` sends a grid and (with ``--wait``) streams progress until the
result frame comes back::

    python -m repro serve --store .repro-store --workers 2 \\
        --queue-limit 16 --tenant-budget 100M
    python -m repro submit --grid grid.json --tenant alice --wait \\
        --json result.json

Two clients submitting the same grid (any tenants) share one
computation — the server dedups by grid fingerprint — and a repeat
submission of a finished grid is served from the store's frame cache
with zero re-simulation (``"cached": true`` in the job snapshot).

Programs may be given as a bundled kernel name or a path to an assembly
file.

Design-point commands (``sta``, ``characterize``, ``evaluate``,
``sweep``, ``stream``, ``table2``; also ``run``) accept
``--pipeline-spec`` to select a registered pipeline microarchitecture
preset (:data:`repro.sim.spec.PIPELINE_VARIANTS`)::

    python -m repro evaluate crc32 --pipeline-spec shallow5

Non-default specs key their own compiled traces, LUTs and store
artifacts; grid files instead declare a ``pipeline_specs`` axis.

Every pipeline command is a thin call into :class:`repro.api.Session`
(the public facade); the CLI only parses arguments and formats output.

Each command lives in its own module, ``repro.cli.<command>``, with an
``add_arguments(parser)`` and a ``run(args)``.  This module holds the
argument types and helpers the commands share, the command table and
the dispatch: a process imports, compiles and configures only the
command it runs, while ``repro --help`` still lists them all.
"""

import argparse
import importlib
import pathlib
import sys

from repro.sim.spec import PIPELINE_VARIANTS, get_pipeline_spec
from repro.timing.profiles import DesignVariant

# Everything heavier than the argument tables is imported inside the
# helper or command that uses it.

#: Registry policy names; ``learned:<model.npz>`` deploys a trained one.
POLICY_CHOICES = ("instruction", "ex-only", "two-class", "genie", "static")

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def load_program(spec):
    """Resolve a program argument: bundled kernel name or .s/.asm path.

    Unknown kernels and missing files raise
    :class:`~repro.workloads.WorkloadError`, which ``main`` turns into a
    friendly message (listing the bundled kernels) and a nonzero exit.
    """
    from repro.workloads import resolve_program

    return resolve_program(spec)


def build(args):
    """Design at the (variant, voltage, pipeline-spec) point named on
    the command line."""
    from repro.timing.design import build_design

    return build_design(
        DesignVariant(args.variant), voltage=args.voltage,
        pipeline_spec=getattr(args, "pipeline_spec", None),
    )


def session(args, store=None, announce=True, **kwargs):
    """A Session at the operating point named on the command line.

    Prints the on-the-fly characterisation notice when neither a LUT
    file nor a store will provide the delay LUT.
    """
    from repro.api import Session
    from repro.dta.lut import DelayLUT

    lut = None
    if getattr(args, "lut", None):
        lut = DelayLUT.from_json(pathlib.Path(args.lut).read_text())
    elif store is None and announce:
        print("no --lut given: characterising on the fly ...",
              file=sys.stderr)
    return Session(
        variant=args.variant, voltage=args.voltage, lut=lut, store=store,
        pipeline_spec=getattr(args, "pipeline_spec", None),
        **kwargs,
    )


def validate_policies(names):
    """Load every ``learned:`` model in ``names`` now, so a missing or
    corrupt file exits 2 before any simulation; the model code is
    imported only when such a spec is named."""
    from repro.ml import is_learned_spec

    if any(is_learned_spec(name) for name in names):
        from repro.ml.model import validate_policy_specs

        validate_policy_specs(names)


def pipeline_spec_arg(value):
    """Argparse type for ``--pipeline-spec``: a registered preset name
    (see :data:`repro.sim.spec.PIPELINE_VARIANTS`)."""
    try:
        get_pipeline_spec(value)
    except (TypeError, ValueError):
        raise argparse.ArgumentTypeError(
            f"unknown pipeline spec {value!r} "
            f"(choose from {', '.join(sorted(PIPELINE_VARIANTS))})"
        ) from None
    return value


def add_pipeline_spec_argument(parser):
    parser.add_argument(
        "--pipeline-spec", default=None, type=pipeline_spec_arg,
        metavar="SPEC",
        help="pipeline microarchitecture preset "
             f"(choices: {', '.join(sorted(PIPELINE_VARIANTS))}; "
             "default: baseline6)",
    )


def add_design_arguments(parser):
    parser.add_argument(
        "--variant", default="critical_range",
        choices=[variant.value for variant in DesignVariant],
        help="implementation variant (default: critical_range)",
    )
    parser.add_argument(
        "--voltage", type=float, default=0.70,
        help="supply voltage in volts (default: 0.70)",
    )
    add_pipeline_spec_argument(parser)


def policy_arg(value):
    """Argparse type for ``--policy``: a registry name or a
    ``learned:<model.npz>`` spec (the file itself is validated later,
    by :func:`validate_policies`)."""
    from repro.ml import is_learned_spec

    if value in POLICY_CHOICES or is_learned_spec(value):
        return value
    raise argparse.ArgumentTypeError(
        f"invalid policy {value!r} "
        f"(choose from {', '.join(POLICY_CHOICES)} "
        "or learned:<model.npz>)"
    )


def parse_size(text):
    """Parse a size budget like ``500M``, ``1.5G``, ``4096`` (bytes)."""
    text = text.strip().lower().removesuffix("b")
    factor = 1
    if text and text[-1] in _SIZE_SUFFIXES:
        factor = _SIZE_SUFFIXES[text[-1]]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"invalid size {text!r}") from None
    if value < 0:
        raise ValueError("size budget cannot be negative")
    return int(value * factor)


def parse_store_budget(args):
    """``--store-max-size`` → bytes (or ``None``); raises ValueError
    on a malformed size or when no store is given to evict."""
    if not getattr(args, "store_max_size", None):
        return None
    if not args.store:
        raise ValueError("--store-max-size requires --store")
    return parse_size(args.store_max_size)


def write_trace(path, session, label):
    """Export the session's telemetry as a Chrome trace-event file."""
    from repro.obs import metrics as obs_metrics
    from repro.obs.export import write_chrome_trace

    spans = session.telemetry.snapshot()
    write_chrome_trace(path, spans, counters=obs_metrics.gather(),
                       label=label)
    print(f"wrote {path} ({len(spans)} spans)")


#: ``(command, help)`` in ``--help`` order; ``repro.cli.<command>``
#: implements each.
COMMANDS = (
    ("kernels", "list bundled workloads"),
    ("asm", "assemble and list a program"),
    ("run", "run a program on the cycle-accurate pipeline"),
    ("sta", "static timing analysis"),
    ("characterize", "extract the delay LUT"),
    ("evaluate", "evaluate a program under a policy"),
    ("sweep", "batch-evaluate programs under many configurations"),
    ("profile", "run a scenario grid with tracing and print the "
                "per-phase time/cache breakdown"),
    ("train", "train a learned clock policy on a scenario grid (ML-DFS)"),
    ("serve", "start the multi-tenant sweep service over a shared store"),
    ("submit", "submit a scenario grid to a running sweep service"),
    ("stream", "streaming (windowed) evaluation — local or via the "
               "service"),
    ("table2", "render a LUT (Table II)"),
    ("store", "artifact-store maintenance"),
)


def build_parser(commands=None):
    """The ``repro`` argument parser.

    Every command is listed; only those named in ``commands`` (default:
    all) are imported and given their arguments, so :func:`main` builds
    just the subparser of the command it runs.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Instruction-based dynamic clock adjustment "
                    "(DATE 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, text in COMMANDS:
        sub = subparsers.add_parser(name, help=text)
        if commands is None or name in commands:
            module = importlib.import_module(f"{__name__}.{name}")
            module.add_arguments(sub)
            sub.set_defaults(func=module.run)
    return parser


#: ``(module, exception)`` pairs ``main`` reports as one ``error:``
#: line with exit code 2: an unknown program spec, a malformed scenario
#: grid, a missing or corrupt learned-policy model (which fails fast,
#: before simulation, naming the offending path) and a program fault.
_INPUT_ERRORS = (
    ("repro.workloads", "WorkloadError"),
    ("repro.lab.scenario", "ScenarioError"),
    ("repro.ml.model", "ModelError"),
    ("repro.sim.predecode", "SimulationError"),
)


def _input_errors():
    """The :data:`_INPUT_ERRORS` types whose module is loaded.  An
    exception can only come from a module that ran, so looking them up
    here, when one propagates, never imports a module for them."""
    return tuple(
        getattr(sys.modules[module], name)
        for module, name in _INPUT_ERRORS if module in sys.modules
    )


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # the top-level parser takes no options besides --help, so the first
    # positional argument is the command
    command = next((arg for arg in argv if not arg.startswith("-")), None)
    parser = build_parser({command})
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _input_errors() as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
