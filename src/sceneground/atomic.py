"""The package's file access: every input file is read and decoded here,
each fault naming its file, and every file the package rewrites is
replaced atomically."""

from __future__ import annotations

import contextlib
import json
import os
import stat
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

__all__ = ["decode_json", "load_json", "load_lines", "write_text_atomic"]

T = TypeVar("T")


def _read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read or decoded
    raises ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def decode_json(text: str, error: type[Exception], where: str = "") -> object:
    """``json.loads(text)``; invalid JSON, or JSON nested deeper than the
    recursion limit, raises ``error`` with ``where`` in front of its text."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}invalid JSON at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from None
    except RecursionError:
        raise error(f"{where}JSON nested too deeply") from None


def load_json(path: str | Path, error: type[Exception], build: Callable[[dict], T]) -> T:
    """``build`` applied to the JSON object in the file at ``path``.

    Any fault, reading and decoding the file included, raises ``error``; a
    top level that is not an object is one, and an ``error`` that ``build``
    raises gets the path in front of its text.
    """
    path = Path(path)
    raw = decode_json(_read_text(path, error), error, f"{path}: ")
    if not isinstance(raw, dict):
        raise error(f"{path}: top level must be a JSON object")
    try:
        return build(raw)
    except error as exc:
        raise error(f"{path}: {exc}") from None


def load_lines(path: str | Path, error: type[Exception], build: Callable[[str], T]) -> list[T]:
    """``build`` applied to each non-blank line of the file at ``path``, in
    order; an ``error`` that ``build`` raises gets ``{path}:{lineno}: `` in
    front of its text, and an unreadable file raises ``error``. Lines end
    only at newlines (``\r\n`` and ``\r`` read as one), so a line separator
    such as U+2028 inside a JSON string stays in its line."""
    path = Path(path)
    out = []
    for lineno, line in enumerate(_read_text(path, error).split("\n"), 1):
        if line.strip():
            try:
                out.append(build(line))
            except error as exc:
                raise error(f"{path}:{lineno}: {exc}") from None
    return out


def write_text_atomic(path: str | Path, text: str) -> None:
    """Write UTF-8 ``text`` to ``path`` atomically.

    The text goes to a temporary file in the target's directory, which then
    replaces the target, so a crash or a failed write leaves the previous
    file whole and no temporary file behind. An existing file keeps its
    permission bits.
    """
    path = Path(path)
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
