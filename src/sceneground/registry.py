"""Registry of active relation encoders plus the append-only accepted library.

Builtins are pre-installed as the active definition for every relation, so a
grounding run can always resolve the full closed set. Optimization runs call
:meth:`EncoderRegistry.accept` to promote a winning candidate; readers take a
snapshot, so a run observes one consistent set of encoders.
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from .atomic import InputError, load_json, write_text_atomic
from .builtins import builtin_definitions
from .dsl import DefinitionError, EncoderDefinition, checked_definition, validate_definition

__all__ = ["RegistryError", "EncoderRegistry", "load_registry", "save_registry"]


class RegistryError(InputError):
    """Raised for a registry file that cannot be read or has the wrong layout."""


def _bare(defn: EncoderDefinition) -> EncoderDefinition:
    """A copy of ``defn`` without its memoized check and digest."""
    return EncoderDefinition(relation=defn.relation, body=defn.body, metadata=defn.metadata)


class EncoderRegistry:
    """Single-writer, many-reader store of encoder definitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        # in RELATIONS order; entries are only replaced in place, so it holds
        self._active: dict[str, EncoderDefinition] = builtin_definitions()
        self._library: list[EncoderDefinition] = []

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
        with self._lock:
            return tuple(self._library)

    def accepted_definition(self, relation: str) -> EncoderDefinition | None:
        """The library's latest definition for a relation, if any."""
        with self._lock:
            return next((d for d in reversed(self._library) if d.relation == relation), None)

    def accept(self, defn: EncoderDefinition) -> None:
        """Append to the library and make the definition active.

        The library keeps a fresh copy of the definition, without its
        memoized check, so a long search does not pin every winner's;
        the active map keeps the compiled definition.
        """
        validate_definition(defn)
        with self._lock:
            self._library.append(_bare(defn))
            self._active[defn.relation] = defn

    def install(self, defn: EncoderDefinition) -> None:
        """Replace the active definition without recording an acceptance."""
        validate_definition(defn)
        with self._lock:
            self._active[defn.relation] = defn

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "active": {name: defn.to_dict() for name, defn in self._active.items()},
                "library": [d.to_dict() for d in self._library],
            }


def save_registry(registry: EncoderRegistry, path: str | Path) -> None:
    """Write the registry atomically (:func:`~sceneground.atomic.write_text_atomic`)."""
    write_text_atomic(path, json.dumps(registry.to_dict(), indent=2) + "\n")


def load_registry(path: str | Path) -> EncoderRegistry:
    """Load a registry file written by :func:`save_registry`.

    An unreadable file, invalid JSON or a wrong layout raises RegistryError;
    a malformed definition raises DefinitionError naming the file and the
    entry, such as ``library[0]`` or ``active["near"]``.
    """
    return load_json(path, RegistryError, lambda raw: _registry_from_dict(raw, path))


def _registry_from_dict(raw: dict, path: str | Path) -> EncoderRegistry:
    library = raw.get("library", [])
    active = raw.get("active", {})
    if not isinstance(library, list) or not isinstance(active, dict):
        raise RegistryError("library must be a list and active an object")
    registry = EncoderRegistry()
    for k, defn_raw in enumerate(library):
        registry._library.append(_bare(_entry(defn_raw, f"{path}: library[{k}]")))
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
