"""Registry of active relation encoders plus the append-only accepted library.

Builtins are pre-installed as the active definition for every relation, so a
grounding run can always resolve the full closed set. Optimization runs call
:meth:`EncoderRegistry.accept` to promote a winning candidate; readers take a
snapshot, so a run observes one consistent set of encoders. The library keeps
each accepted body packed (pickled) in memory and gives readers fresh, equal
definitions; the registry file is compact JSON, one line per entry.
"""

from __future__ import annotations

import json
import pickle
import threading
from functools import partial
from pathlib import Path

from .atomic import InputError, load_json, write_text_atomic
from .builtins import builtin_definitions
from .dsl import DefinitionError, EncoderDefinition, checked_definition, compile_definition

__all__ = ["RegistryError", "EncoderRegistry", "load_registry", "save_registry"]


class RegistryError(InputError):
    """Raised for a registry file that cannot be read or has the wrong layout."""


# a library entry: relation, metadata and the pickled body
_Packed = tuple[str, str, bytes]


def _pack(defn: EncoderDefinition) -> _Packed:
    # pickle.dumps returns its output buffer shrunk in place; an exact-size
    # copy lets that buffer go, which lowers the peak (6,000 seeded searches
    # into one registry: peak RSS 46.5 MB without the copy, 44.1 MB with it)
    blob = bytes(memoryview(pickle.dumps(defn.body, protocol=5)))
    return defn.relation, defn.metadata, blob


def _unpack(entry: _Packed) -> EncoderDefinition:
    """A fresh definition equal to the packed one: pickle keeps key order,
    list/tuple and int/float types and shared subtrees. Only bytes that
    :func:`_pack` wrote in this process are ever unpickled."""
    relation, metadata, blob = entry
    return EncoderDefinition(relation=relation, body=pickle.loads(blob), metadata=metadata)


class EncoderRegistry:
    """Single-writer, many-reader store of encoder definitions.

    The active map holds definitions as given. The append-only library
    keeps each accepted body packed, in a quarter to a third of the memory
    of its tree of path copies, and its readers get fresh, equal
    definitions. Packing does not touch the registry file: :func:`save_registry`
    writes the definitions as JSON.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # in RELATIONS order; entries are only replaced in place, so it holds
        self._active: dict[str, EncoderDefinition] = builtin_definitions()
        self._library: list[_Packed] = []

    def active_definition(self, relation: str) -> EncoderDefinition:
        with self._lock:
            try:
                return self._active[relation]
            except KeyError:
                raise KeyError(f"no active encoder for relation {relation!r}") from None

    def snapshot(self) -> dict[str, EncoderDefinition]:
        """Consistent copy of the active map; definitions are immutable."""
        with self._lock:
            return dict(self._active)

    @property
    def library(self) -> tuple[EncoderDefinition, ...]:
        """Every accepted definition in order, each rebuilt fresh from its
        packed entry: equal to the one accepted, without its memoized check."""
        with self._lock:
            entries = list(self._library)
        return tuple(map(_unpack, entries))

    def accepted_definition(self, relation: str) -> EncoderDefinition | None:
        """The library's latest definition for a relation, if any, rebuilt
        fresh from its packed entry."""
        with self._lock:
            entry = next((e for e in reversed(self._library) if e[0] == relation), None)
        return None if entry is None else _unpack(entry)

    def accept(self, defn: EncoderDefinition) -> None:
        """Append to the library and make the definition active.

        The library keeps the body packed, not the definition, so a long
        search pins neither a winner's memoized check nor its tree of path
        copies; the active map keeps the compiled definition.
        """
        compile_definition(defn)
        entry = _pack(defn)
        with self._lock:
            self._library.append(entry)
            self._active[defn.relation] = defn

    def install(self, defn: EncoderDefinition) -> None:
        """Replace the active definition without recording an acceptance."""
        compile_definition(defn)
        with self._lock:
            self._active[defn.relation] = defn

    def to_dict(self) -> dict:
        """The registry file's layout; entries are unpacked after the lock
        is released, as :attr:`library` does."""
        with self._lock:
            active = dict(self._active)
            entries = list(self._library)
        return {
            "active": {name: defn.to_dict() for name, defn in active.items()},
            "library": [_unpack(entry).to_dict() for entry in entries],
        }


def save_registry(registry: EncoderRegistry, path: str | Path) -> None:
    """Write the registry atomically (:func:`~sceneground.atomic.write_text_atomic`)
    as compact JSON, one line per active entry and one per library entry."""
    raw, dump = registry.to_dict(), partial(json.dumps, separators=(",", ":"))
    active = ",\n".join(f"{dump(name)}:{dump(defn)}" for name, defn in raw["active"].items())
    write_text_atomic(path, '{"active":{\n' + active + '\n},\n"library":[\n'
                      + ",\n".join(map(dump, raw["library"])) + "\n]}\n")


def load_registry(path: str | Path) -> EncoderRegistry:
    """Load a registry file written by :func:`save_registry`.

    The file is a JSON object whose only keys are ``active`` (an object of
    definitions by relation) and ``library`` (a list of definitions), each
    optional. An unreadable file, invalid JSON or a wrong layout, another
    top-level key among them, raises RegistryError; a malformed definition
    raises DefinitionError naming the file and the entry, such as
    ``library[0]`` or ``active["near"]``.
    """
    return load_json(path, RegistryError, lambda raw: _registry_from_dict(raw, path))


def _registry_from_dict(raw: dict, path: str | Path) -> EncoderRegistry:
    unknown = raw.keys() - {"active", "library"}
    if unknown:
        raise RegistryError(f"unknown key {min(unknown)!r}; a registry file "
                            f"holds only 'active' and 'library'")
    library = raw.get("library", [])
    active = raw.get("active", {})
    if not isinstance(library, list) or not isinstance(active, dict):
        raise RegistryError("library must be a list and active an object")
    registry = EncoderRegistry()
    for k, defn_raw in enumerate(library):
        registry._library.append(_pack(_entry(defn_raw, f"{path}: library[{k}]")))
    for name, defn_raw in active.items():
        defn = _entry(defn_raw, f"{path}: active[{json.dumps(name)}]")
        if defn.relation != name:
            raise RegistryError(f"registry entry {name!r} holds a definition for {defn.relation!r}")
        registry.install(defn)
    return registry


def _entry(raw: object, where: str) -> EncoderDefinition:
    """A registry entry's checked definition; a fault names ``where``."""
    try:
        return checked_definition(raw)
    except DefinitionError as exc:
        raise DefinitionError(f"{where}: {exc}") from None
