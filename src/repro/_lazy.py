"""Lazy package exports (PEP 562).

A package ``__init__`` that imports every public name from its
submodules makes any ``import repro.pkg.mod`` load all of ``repro.pkg``.
A package that uses :func:`lazy_exports` instead states which submodule
defines each public name, and a submodule is imported the first time one
of its names is looked up on the package::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "aggregate": ("AggregateBucket", "aggregate_series"),
        "histogram": ("HistogramResult", "histogram"),
    })
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], Any], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` for ``package``.

    ``exports`` maps each submodule (relative to ``package``) to the public
    names it defines. The first lookup of a name imports its submodule and
    binds the name on the package, so later lookups are plain attribute
    reads. A name equal to its submodule's name is bound at once: importing
    a submodule binds the module under that name on its package, and the
    exported object must win, as it did when the package imported it.
    """
    where = {name: sub for sub, names in exports.items() for name in names}
    module = sys.modules[package]

    def __getattr__(name: str) -> Any:
        try:
            sub = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f"{package}.{sub}"), name)
        setattr(module, name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(module)) | set(where))

    for name, sub in where.items():
        if name == sub:
            __getattr__(name)
    return list(where), __getattr__, __dir__
