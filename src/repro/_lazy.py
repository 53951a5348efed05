"""Lazy package re-exports (PEP 562).

Every ``repro`` package ``__init__`` re-exports its public names through
:func:`lazy_exports` instead of eager ``from ... import`` lines, so
importing a package costs nothing until one of its names is used: a
warm ``repro sweep`` never executes the simulator, the
characterisation flow or the ML trainer.  ``from repro.api import
Session``, ``repro.api.Session`` and ``dir(repro.api)`` behave as
before; the first access imports the defining submodule and caches the
value in the package namespace, so later lookups are plain attribute
reads.
"""

import importlib
import sys


def lazy_exports(package, exports):
    """``(__getattr__, __dir__)`` for a package re-exporting ``exports``.

    ``exports`` maps a submodule name (relative to ``package``) to the
    names it provides; a name equal to its submodule's name re-exports
    the submodule itself.  Assign the result in the package ``__init__``::

        __getattr__, __dir__ = lazy_exports(__name__, {
            "frame": ("ResultFrame", "Column"),
            "session": ("Session",),
        })
    """
    origin = {
        name: submodule
        for submodule, names in exports.items()
        for name in names
    }

    def __getattr__(name):
        submodule = origin.get(name)
        if submodule is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__():
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__
