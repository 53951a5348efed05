"""Import discipline: a process imports only what its command runs.

A warm ``repro sweep`` (every trace and LUT in the store) simulates and
characterises nothing, so it must not import the simulator, the
characterisation flow, the ML trainer or a process pool either.  Each
module avoided saves its import and, without cached bytecode, its
compile.  The package ``__init__`` modules re-export lazily
(:mod:`repro._lazy`) and cold-path code is imported where it is called;
these tests hold that line.

``WARM_SWEEP_MODULES`` is the allow-list: a change that makes a warm
sweep load another ``repro`` module must extend it and say why.  The
CLI is a package with one module per command, so a sweep loads
``repro.cli`` (dispatch and shared argument types) and
``repro.cli.sweep`` only.  The
learned-spec helpers live in ``repro.ml`` itself and the stored LUT is
wrapped by ``repro.dta.lut.CharacterizationResult``, so neither
``repro.ml.model`` nor ``repro.flow.characterize`` loads warm.
``repro.utils.keys`` loads with ``repro.dta.compiled``: a warm sweep
still looks its traces up by the hash-once ``trace_key``.
"""

import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
GRID = ROOT / "examples" / "grids" / "quick.json"

#: Every ``repro`` module a warm ``repro sweep --grid`` may load.
WARM_SWEEP_MODULES = frozenset({
    "repro", "repro._lazy", "repro.cli", "repro.cli.sweep",
    "repro.api", "repro.api.frame", "repro.api.session",
    "repro.asm", "repro.asm.assembler", "repro.asm.program",
    "repro.clocking", "repro.clocking.controller",
    "repro.clocking.generator", "repro.clocking.policies",
    "repro.core", "repro.core.config", "repro.core.dca",
    "repro.dta", "repro.dta.compiled", "repro.dta.lut",
    "repro.flow", "repro.flow.evaluate",
    "repro.isa", "repro.isa.classes", "repro.isa.encoding",
    "repro.isa.instruction", "repro.isa.opcodes", "repro.isa.registers",
    "repro.lab", "repro.lab.runner", "repro.lab.scenario",
    "repro.lab.store",
    "repro.ml",
    "repro.obs", "repro.obs.metrics", "repro.obs.trace",
    "repro.sim", "repro.sim.spec", "repro.sim.trace",
    "repro.timing", "repro.timing.design", "repro.timing.excitation",
    "repro.timing.library", "repro.timing.profiles",
    "repro.utils", "repro.utils.bitops", "repro.utils.keys",
    "repro.utils.rng", "repro.utils.tables", "repro.utils.units",
    "repro.workloads", "repro.workloads._asmutil",
    "repro.workloads.coremark", "repro.workloads.kernels",
    "repro.workloads.kernels.bits", "repro.workloads.kernels.crc",
    "repro.workloads.kernels.fib", "repro.workloads.kernels.gcd",
    "repro.workloads.kernels.histogram",
    "repro.workloads.kernels.matmult", "repro.workloads.kernels.memops",
    "repro.workloads.kernels.primes", "repro.workloads.kernels.search",
    "repro.workloads.kernels.signal", "repro.workloads.kernels.sort",
    "repro.workloads.kernels.statemachine", "repro.workloads.suite",
})

#: Cold-path code a warm sweep must never load.
NEVER_WARM = (
    "multiprocessing",
    "concurrent.futures",
    "repro.sim.vector",
    "repro.dta.gatesim",
    "repro.ml.train",
    "repro.workloads.randomgen",
    "repro.timing.netlist",
    "repro.flow.characterize",
    "repro.ml.model",
)

#: Modules no sweep, cold or warm, should load: under numpy 2.4 a plain
#: ``np.unique`` imports ``numpy.ma``.
NEVER_IN_SWEEP = ("numpy.ma",)

#: Every package that re-exports through :func:`repro._lazy.lazy_exports`.
PACKAGES = (
    "repro", "repro.adapt", "repro.api", "repro.approx", "repro.asm",
    "repro.clocking", "repro.core", "repro.dta", "repro.flow", "repro.isa",
    "repro.lab", "repro.ml", "repro.obs", "repro.power", "repro.serve",
    "repro.sim", "repro.stream", "repro.timing", "repro.utils",
    "repro.workloads",
)

#: Child process: runs ``repro.cli.main(argv)`` (or a bare ``import
#: repro`` without argv) and dumps ``sys.modules`` plus, for every
#: module, the module whose code imported it first.
PROBE = r"""
import json
import sys

importer = {}
machinery = ("importlib", "_frozen_importlib", "repro._lazy")


class FirstImporter:
    def find_spec(self, name, path=None, target=None):
        if name not in importer:
            frame = sys._getframe(1)
            while frame is not None and frame.f_globals.get(
                    "__name__", "").startswith(machinery):
                frame = frame.f_back
            importer[name] = frame and frame.f_globals.get("__name__")
        return None


sys.meta_path.insert(0, FirstImporter())
out, argv = sys.argv[1], sys.argv[2:]
code = 0
if argv:
    import repro.cli

    code = repro.cli.main(argv)
else:
    import repro
with open(out, "w") as handle:
    json.dump({"code": code, "modules": sorted(sys.modules),
               "importer": importer}, handle)
"""


def _probe(tmp_path, *argv):
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]]
                               if env.get("PYTHONPATH") else [])
    )
    subprocess.run(
        [sys.executable, "-c", PROBE, str(out), *argv],
        cwd=tmp_path, env=env, check=True, capture_output=True,
    )
    return json.loads(out.read_text())


def _chain(name, importer):
    """``name <- its importer <- ...`` up to the entry point."""
    links = [name]
    while importer.get(links[-1]) and importer[links[-1]] not in links:
        links.append(importer[links[-1]])
    return " <- ".join(links)


def _report(names, probe):
    return "\n".join(
        "  " + _chain(name, probe["importer"]) for name in sorted(names)
    )


@pytest.fixture(scope="module")
def sweeps(tmp_path_factory):
    """Modules of a cold ``repro sweep`` process that fills the store,
    then of a warm one over it: ``(cold, warm)``."""
    tmp_path = tmp_path_factory.mktemp("warm-sweep")
    argv = ("sweep", "--grid", str(GRID), "--store", str(tmp_path / "store"),
            "--json", str(tmp_path / "sweep.json"))
    cold = _probe(tmp_path, *argv)
    assert cold["code"] == 0
    warm = _probe(tmp_path, *argv)
    assert warm["code"] == 0
    assert json.loads((tmp_path / "sweep.json").read_text())[
        "simulations"] == 0
    return cold, warm


@pytest.fixture(scope="module")
def warm_sweep(sweeps):
    return sweeps[1]


class TestWarmSweep:
    def test_loads_only_allow_listed_modules(self, warm_sweep):
        loaded = {name for name in warm_sweep["modules"]
                  if name == "repro" or name.startswith("repro.")}
        unexpected = loaded - WARM_SWEEP_MODULES
        assert not unexpected, (
            "a warm sweep loaded repro modules outside the allow-list "
            "(import chains, importer last):\n"
            + _report(unexpected, warm_sweep)
        )

    def test_cold_path_not_loaded(self, warm_sweep):
        loaded = set(warm_sweep["modules"])
        assert not loaded & set(NEVER_WARM), (
            "a warm sweep loaded cold-path modules (import chains, "
            "importer last):\n" + _report(loaded & set(NEVER_WARM),
                                          warm_sweep)
        )


@pytest.mark.parametrize("run", ["cold", "warm"])
def test_sweep_never_loads_numpy_ma(sweeps, run):
    probe = sweeps[run == "warm"]
    loaded = set(probe["modules"]) & set(NEVER_IN_SWEEP)
    assert not loaded, (
        f"a {run} sweep loaded (import chains, importer last):\n"
        + _report(loaded, probe)
    )


def test_bare_import_loads_no_subpackage(tmp_path):
    probe = _probe(tmp_path)
    loaded = {name for name in probe["modules"]
              if name == "repro" or name.startswith("repro.")}
    extra = loaded - {"repro", "repro._lazy"}
    assert not extra, (
        "`import repro` loaded (import chains, importer last):\n"
        + _report(extra, probe)
    )


@pytest.mark.parametrize("package", PACKAGES)
def test_lazy_exports_resolve(package):
    """Every name in ``__all__`` resolves, is listed by ``dir()`` and
    works with ``from package import name``."""
    module = importlib.import_module(package)
    listing = dir(module)
    for name in module.__all__:
        assert name in listing, name
        assert getattr(module, name) is not None, name
        namespace = {}
        exec(f"from {package} import {name}", namespace)
        assert namespace[name] is getattr(module, name)


def test_unknown_attribute_raises():
    import repro.api

    with pytest.raises(AttributeError, match="no attribute 'Nope'"):
        repro.api.Nope  # noqa: B018
