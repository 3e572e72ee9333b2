"""The versioned, auditable decision-table artifact behind ``algorithm="auto"``.

A :class:`DecisionTable` maps every workload-feature key (see
:mod:`repro.select.features`) to a *ranking* of candidate algorithms,
best-first, plus the provenance of that ranking: which
:class:`~repro.exec.RunSpec` digests the empirical cells were distilled
from and which analytic model filled the rest.  The table is plain JSON —
loadable, diffable, and content-versioned (:attr:`DecisionTable.version`
is a digest of the canonical payload), so two tables distilled from the
same cache contents are bit-identical and share a version string.

Resolution order for the *active* table (what ``algorithm="auto"`` uses):

1. an in-process override installed with :func:`use_table`;
2. the path named by the ``REPRO_SELECT_TABLE`` environment variable
   (inherited by orchestrator worker processes, so parallel sweeps
   resolve identically to serial ones);
3. the packaged default (``default_table.json``, distilled by
   ``repro advise --distill`` and shipped with the source tree).
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any

from repro.select.features import all_keys, split_key

#: Table serialization format (bumped on layout changes).
TABLE_FORMAT = 1

#: Environment variable naming an alternative table file; read at every
#: resolution so worker processes spawned with it inherit the choice.
TABLE_ENV_VAR = "REPRO_SELECT_TABLE"

#: Entry sources: distilled from executed sweep cells, or filled by the
#: Hockney-model prior.
SOURCES = ("empirical", "analytic")


@dataclass(frozen=True)
class TableEntry:
    """One key's ranking and where it came from.

    ``ranking`` lists candidate algorithm names best-first; ``source``
    says whether executed sweep cells (``"empirical"``) or the analytic
    model (``"analytic"``) produced the order; ``cells`` counts the
    distinct (topology, machine, size) sweep cells that voted when
    empirical.
    """

    ranking: tuple[str, ...]
    source: str
    cells: int = 0

    def to_dict(self) -> dict[str, Any]:
        data: dict[str, Any] = {"ranking": list(self.ranking),
                                "source": self.source}
        if self.cells:
            data["cells"] = self.cells
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TableEntry":
        source = data["source"]
        if source not in SOURCES:
            raise ValueError(f"unknown entry source {source!r}")
        return cls(
            ranking=tuple(data["ranking"]),
            source=source,
            cells=int(data.get("cells", 0)),
        )


@dataclass(frozen=True)
class DecisionTable:
    """The selector's transparent policy (see module docstring).

    ``candidates`` pairs every selectable algorithm name with the
    constructor kwargs selection instantiates it with (the registry's
    ``bench_kwargs`` at distillation time, so empirical cells and
    selected runs execute identical configurations).
    """

    candidates: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...]
    entries: dict[str, TableEntry] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        names = self.candidate_names()
        for key, entry in self.entries.items():
            split_key(key)  # validates the bucket vocabulary
            unknown = set(entry.ranking) - set(names)
            if unknown:
                raise ValueError(
                    f"entry {key!r} ranks non-candidate algorithm(s) "
                    f"{sorted(unknown)}"
                )

    # ------------------------------------------------------------- identity
    def candidate_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.candidates)

    def kwargs_for(self, name: str) -> dict[str, Any]:
        for cand, kwargs in self.candidates:
            if cand == name:
                return dict(kwargs)
        raise KeyError(f"{name!r} is not a table candidate")

    def lookup(self, key: str) -> TableEntry | None:
        return self.entries.get(key)

    def is_complete(self) -> bool:
        """Does the table cover the entire bucket-key space?"""
        return set(self.entries) >= set(all_keys())

    @cached_property
    def version(self) -> str:
        """Content digest of the canonical payload (short, stable).

        Computed on first read and kept: the table is frozen, and each
        ``auto`` run reads it more than once.
        """
        payload = json.dumps(self._canonical(), sort_keys=True,
                             separators=(",", ":"))
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    def _canonical(self) -> dict[str, Any]:
        return {
            "format": TABLE_FORMAT,
            "candidates": [[name, [list(pair) for pair in kwargs]]
                           for name, kwargs in self.candidates],
            "entries": {key: self.entries[key].to_dict()
                        for key in sorted(self.entries)},
            "provenance": self.provenance,
        }

    # ---------------------------------------------------------------- serde
    def to_dict(self) -> dict[str, Any]:
        data = self._canonical()
        data["version"] = self.version
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTable":
        if data.get("format") != TABLE_FORMAT:
            raise ValueError(
                f"unsupported table format {data.get('format')!r} "
                f"(expected {TABLE_FORMAT})"
            )
        table = cls(
            candidates=tuple(
                (name, tuple((k, v) for k, v in kwargs))
                for name, kwargs in data["candidates"]
            ),
            entries={key: TableEntry.from_dict(entry)
                     for key, entry in data["entries"].items()},
            provenance=dict(data.get("provenance", {})),
        )
        recorded = data.get("version")
        if recorded is not None and recorded != table.version:
            raise ValueError(
                f"table version mismatch: file says {recorded!r} but the "
                f"payload hashes to {table.version!r} (corrupted or "
                "hand-edited artifact)"
            )
        return table

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(json.dumps(self.to_dict(), indent=2, sort_keys=True)
                        + "\n")
        return path

    @classmethod
    def load(cls, path: str | Path) -> "DecisionTable":
        return cls.from_dict(json.loads(Path(path).read_text()))

    # ----------------------------------------------------------------- diff
    def diff(self, other: "DecisionTable") -> dict[str, Any]:
        """Keys whose winner or ranking changed between two tables."""
        changed = {}
        for key in sorted(set(self.entries) | set(other.entries)):
            mine = self.entries.get(key)
            theirs = other.entries.get(key)
            if mine == theirs:
                continue
            changed[key] = {
                "before": mine.to_dict() if mine else None,
                "after": theirs.to_dict() if theirs else None,
            }
        return {
            "versions": [self.version, other.version],
            "changed": changed,
        }


# --------------------------------------------------------------------------
# active-table resolution
# --------------------------------------------------------------------------

_OVERRIDE: DecisionTable | None = None
_DEFAULT_CACHE: DecisionTable | None = None

#: The packaged default artifact (distilled via ``repro advise --distill``).
DEFAULT_TABLE_PATH = Path(__file__).with_name("default_table.json")


def default_table() -> DecisionTable:
    """The packaged table (memoized; the file is immutable per checkout)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = DecisionTable.load(DEFAULT_TABLE_PATH)
    return _DEFAULT_CACHE


def use_table(table: DecisionTable | None) -> None:
    """Install (or clear, with ``None``) an in-process table override."""
    global _OVERRIDE
    _OVERRIDE = table


def active_table() -> DecisionTable:
    """The table ``algorithm="auto"`` resolves against right now."""
    if _OVERRIDE is not None:
        return _OVERRIDE
    env_path = os.environ.get(TABLE_ENV_VAR)
    if env_path:
        return DecisionTable.load(env_path)
    return default_table()


def active_table_version() -> str:
    return active_table().version
