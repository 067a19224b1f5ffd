"""PEP 562 lazy re-exports for the package ``__init__``s (SPEC 1)."""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, **exports):
    """``(__getattr__, __dir__)`` for ``package``: each keyword names a
    submodule and the names it defines, imported and cached on first read.
    Any other submodule resolves as an attribute too (``repro.eval.runner``).
    """
    home = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        if name in home:
            module = importlib.import_module(f"{package}.{home[name]}")
            namespace[name] = value = getattr(module, name)
            return value
        if not name.startswith("__"):
            try:
                return importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as exc:
                if exc.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__():
        return sorted({*namespace, *home, *namespace.get("__all__", ())})

    return __getattr__, __dir__
