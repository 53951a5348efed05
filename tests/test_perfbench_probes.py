"""The repo benchmark's layer probes still find what they time.

``perfbench/layers.py`` swaps each ``_TIMED`` attribute for a timing
wrapper, looked up with ``owner.__dict__[name]``; a rename in ``src/``
breaks the benchmark with a ``KeyError``.  This test resolves every
probe the same way, through the benchmark's own ``_patch_targets``, so
the rename fails here, in the fast suite, too.  ``perfbench/`` is read,
never written; entries naming a module that no longer exists are
skipped, as the probe skips them.
"""

import importlib
import importlib.util
import pathlib
import types

import pytest

LAYERS_PATH = (pathlib.Path(__file__).parent.parent / "perfbench"
               / "layers.py")


@pytest.fixture(scope="module")
def layers():
    """``perfbench/layers.py`` executed from its source text (no
    bytecode cache is written next to it)."""
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS_PATH)
    exec(compile(LAYERS_PATH.read_text(), str(LAYERS_PATH), "exec"),
         module.__dict__)
    return module


def _live_entries(layers):
    return [entry for entry in layers._TIMED
            if importlib.util.find_spec(entry[0]) is not None]


def test_every_probe_resolves(layers):
    """Each live ``_TIMED`` attribute is in its owner's ``__dict__``; then
    the probe's own lookup runs, covering the patches it adds beyond
    ``_TIMED`` (the delay matrix, the store counters)."""
    missing = []
    for module_name, attribute, _, _ in _live_entries(layers):
        owner = importlib.import_module(module_name)
        *path, name = attribute.split(".")
        for part in path:
            owner = vars(owner).get(part)
            if owner is None:
                break
        if owner is None or name not in vars(owner):
            missing.append(f"{module_name}:{attribute}")
    assert not missing, missing
    for module_name in dict.fromkeys(e[0] for e in _live_entries(layers)):
        module = importlib.import_module(module_name)
        for owner, name, original, _ in layers._patch_targets(
                module, layers.Recorder()):
            assert owner.__dict__[name] is original


def test_only_the_dead_pipeline_entry_is_skipped(layers):
    skipped = set(layers._TIMED) - set(_live_entries(layers))
    assert {entry[0] for entry in skipped} == {"repro.sim.pipeline"}
