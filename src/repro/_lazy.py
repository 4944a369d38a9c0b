"""Lazy package exports: a name is imported the first time it is read.

Every package ``__init__`` declares its ``__all__`` and one table of
where each exported name lives, and hands the table to
:func:`lazy_exports` (PEP 562). ``import repro.sim`` then loads only the
package module itself; ``repro.sim.Simulator`` (or
``from repro.sim import Simulator``) imports :mod:`repro.sim.engine` on
first access and binds the name, so later reads are plain attribute
look-ups. A process therefore loads the modules it uses and no others
(DESIGN.md, "What a process imports").
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, table: dict[str, tuple[str, ...]]):
    """``(__getattr__, __dir__)`` for a package exporting ``table``.

    Args:
        package: the package's ``__name__``.
        table: ``{module: (name, ...)}`` — each exported name and the
            module it is defined in, as the ``from module import name``
            statements it replaces would list them.

    Resolving a name binds every name of ``table`` that lives in the
    same module, so a function named like its submodule
    (``repro.analysis.critical_path``) is not left shadowed by the
    submodule binding the import machinery sets on the package.
    """
    namespace = sys.modules[package].__dict__
    where = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str):
        module = where.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        loaded = importlib.import_module(module)
        for other in table[module]:
            namespace[other] = getattr(loaded, other)
        return namespace[name]

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
