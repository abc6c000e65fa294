"""Registry of active relation encoders plus the append-only accepted library.

Builtins are pre-installed as the active definition for every relation, so a
grounding run can always resolve the full closed set. Optimization runs call
:meth:`EncoderRegistry.accept` to promote a winning candidate; readers take a
snapshot, so a run observes one consistent set of encoders.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import tempfile
import threading
from pathlib import Path

from .builtins import builtin_definitions
from .dsl import EncoderDefinition, definition_from_dict, validate_definition
from .expression import ALL_RELATIONS

__all__ = ["RegistryError", "EncoderRegistry", "load_registry", "save_registry"]


class RegistryError(ValueError):
    """Raised for a registry file that cannot be read or has the wrong layout."""


class EncoderRegistry:
    """Single-writer, many-reader store of encoder definitions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
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
        """Most recently accepted definition for a relation, if any."""
        with self._lock:
            for defn in reversed(self._library):
                if defn.relation == relation:
                    return defn
        return None

    def accept(self, defn: EncoderDefinition) -> None:
        """Append to the library and make the definition active."""
        validate_definition(defn)
        with self._lock:
            self._library.append(defn)
            self._active[defn.relation] = defn

    def install(self, defn: EncoderDefinition) -> None:
        """Replace the active definition without recording an acceptance."""
        validate_definition(defn)
        with self._lock:
            self._active[defn.relation] = defn

    def to_dict(self) -> dict:
        with self._lock:
            return {
                "active": {name: self._active[name].to_dict() for name in ALL_RELATIONS},
                "library": [d.to_dict() for d in self._library],
            }


def save_registry(registry: EncoderRegistry, path: str | Path) -> None:
    """Write the registry atomically.

    The JSON goes to a temporary file in the target's directory, which then
    replaces the target, so a crash mid-write leaves the previous file whole.
    An existing file keeps its permission bits.
    """
    path = Path(path)
    text = json.dumps(registry.to_dict(), indent=2) + "\n"
    mode = stat.S_IMODE(path.stat().st_mode) if path.exists() else 0o644
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.chmod(tmp, mode)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise


def load_registry(path: str | Path) -> EncoderRegistry:
    """Load a registry file written by :func:`save_registry`.

    An unreadable file, invalid JSON or a wrong layout raises RegistryError;
    a malformed definition raises DefinitionError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RegistryError(f"cannot read registry {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise RegistryError(f"{path}: top level must be a JSON object")
    library = raw.get("library", [])
    active = raw.get("active", {})
    if not isinstance(library, list) or not isinstance(active, dict):
        raise RegistryError(f"{path}: library must be a list and active an object")
    registry = EncoderRegistry()
    for defn_raw in library:
        defn = definition_from_dict(defn_raw)
        validate_definition(defn)
        registry._library.append(defn)
    for name, defn_raw in active.items():
        defn = definition_from_dict(defn_raw)
        if defn.relation != name:
            raise RegistryError(f"registry entry {name!r} holds a definition for {defn.relation!r}")
        registry.install(defn)
    return registry
