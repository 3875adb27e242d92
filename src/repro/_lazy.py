"""PEP 562 lazy package exports.

A package ``__init__`` that re-exports names from heavy submodules
(numpy-backed training code, the corpus generator, the scipy CRF)
makes every process that touches the package pay for them, including
the ones that never call them.  :func:`lazy_exports` keeps such a name
public without importing its submodule until the name is first
looked up::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "pos_tags": "repro.text.pos",
    })

The name then resolves by attribute access, through
``from package import name`` and in ``dir(package)``, and is the same
object as the submodule's.  After the first lookup it is stored in the
package namespace, so later lookups do not come back here.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable


def lazy_exports(
    namespace: dict, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair for a package namespace.

    *namespace* is the package's ``globals()``; *exports* maps each
    lazy name to the absolute name of the submodule that defines it.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
