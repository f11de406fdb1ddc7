"""Count the settable values of the ``wtalab`` API and list them.

A settable value is a parameter with a default, over every public function,
constructor and plain method defined in a ``wtalab`` module, read with
``inspect.signature``. Names that start with ``_`` are private and skipped;
a name a module imports from another is counted where it is defined.
Classmethods and staticmethods are not unwrapped, so they do not count.

    PYTHONPATH=src python tools/settables.py

prints one ``module.owner(parameter)`` per line, then the total, then the
size of ``src/``: its newlines over ``src/wtalab/*.py``, as ``wc -l``
counts them, and its number of files.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import wtalab


def _callables(mod):
    """``(name, callable)`` of each public function and class of ``mod``
    and each public plain method of those classes."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            yield name, obj
            for key, attr in vars(obj).items():
                if not key.startswith("_") and inspect.isfunction(attr):
                    yield f"{name}.{key}", attr


def settables() -> list[str]:
    found = []
    for info in pkgutil.iter_modules(wtalab.__path__):
        mod = importlib.import_module(f"wtalab.{info.name}")
        for name, fn in _callables(mod):
            try:
                params = inspect.signature(fn).parameters.values()
            except (TypeError, ValueError):  # no signature to read
                continue
            found += [f"{mod.__name__}.{name}({p.name})" for p in params
                      if p.default is not inspect.Parameter.empty]
    return found


def src_size() -> tuple[int, int]:
    """Lines and files of the package's ``*.py`` sources."""
    files = sorted(Path(wtalab.__file__).parent.glob("*.py"))
    return sum(f.read_bytes().count(b"\n") for f in files), len(files)


def main() -> None:
    found = settables()
    print("\n".join(found))
    print(f"total {len(found)}")
    lines, files = src_size()
    print(f"src {lines} lines in {files} files")


if __name__ == "__main__":
    main()
