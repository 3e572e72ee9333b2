"""docs/API.md names only what the package really has.

Every ``## `repro.X` `` (or ``### `repro.X.Y` ``) section lists names in
the first column of its table.  Each backticked name there must resolve:
as an attribute of the section's module or of one of that package's
modules, with a ``Class.method`` (or ``module.name``) name resolved
through its first part.  A renamed or deleted name that the reference
still lists fails here.
"""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

API_MD = Path(__file__).resolve().parents[1] / "docs" / "API.md"

_SECTION = re.compile(r"^#{2,3} `(repro(?:\.\w+)*)`")
_HEADING = re.compile(r"^#{1,6} ")
_NAME = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)")


def _listed_names() -> list[tuple[str, str]]:
    """``(module, name)`` for every name in a table row's first column."""
    listed = []
    module = None
    for line in API_MD.read_text(encoding="utf-8").splitlines():
        if _HEADING.match(line):
            section = _SECTION.match(line)
            if section:
                module = section.group(1)
            elif line.startswith("## "):
                module = None
            continue
        if module is None or not line.startswith("|"):
            continue
        first = line.split("|")[1]
        if set(first.strip()) <= {"-", " "} or first.strip() == "Name":
            continue
        listed.extend((module, name) for name in _NAME.findall(first))
    return listed


def _namespaces(module_name: str) -> list[object]:
    """The module itself, then every module directly inside its package."""
    module = importlib.import_module(module_name)
    spaces = [module]
    for info in pkgutil.iter_modules(getattr(module, "__path__", [])):
        spaces.append(importlib.import_module(f"{module_name}.{info.name}"))
    return spaces


def _resolves(module_name: str, name: str) -> bool:
    first, *rest = name.split(".")
    for space in _namespaces(module_name):
        obj = getattr(space, first, None)
        if obj is None:
            continue
        for part in rest:
            obj = getattr(obj, part, None)
            if obj is None:
                break
        else:
            return True
    return False


def test_every_listed_name_resolves():
    listed = _listed_names()
    assert len(listed) > 150  # the reference's tables were all read
    missing = [f"{module}: {name}" for module, name in listed
               if not _resolves(module, name)]
    assert not missing, f"docs/API.md lists names the package lacks: {missing}"
