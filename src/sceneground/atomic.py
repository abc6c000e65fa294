"""The package's file access: every input file is read and decoded here,
and every file the package rewrites is replaced atomically.

A fault in the input is an :class:`InputError`; each loader's own error
class derives from it. A JSON file and each non-blank line of a line file
follow one rule: decode the text, require an object at the top level, then
build the value, each fault behind ``PATH: `` or ``PATH:LINE: ``. LLM reply
blocks and HTTP response bodies decode by that rule too, as LlmErrors."""

from __future__ import annotations

import contextlib
import json
import os
import stat
import tempfile
from collections.abc import Callable
from pathlib import Path
from typing import TypeVar

__all__ = ["InputError", "decode_object", "load_json", "load_lines", "write_text_atomic"]

T = TypeVar("T")


class InputError(ValueError):
    """A fault in the program's input: a file, a line, an option or a value
    the caller passed. The CLI exits 2 for it."""


def _read_text(path: Path, error: type[Exception]) -> str:
    """The UTF-8 text of ``path``; a file that cannot be read or decoded
    raises ``error``."""
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"cannot read {path}: {exc}") from None


def decode_object(text: str | bytes, error: type[Exception], build: Callable[[dict], T],
                  where: str = "") -> T:
    """``build`` applied to the JSON object ``text`` (bytes in any encoding
    json.loads detects) holds. Invalid JSON, JSON nested deeper than the
    recursion limit, a top level that is not an object and ``build``'s own
    ``error`` each raise ``error`` with ``where`` in front of its text."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"{where}invalid JSON at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from None
    except RecursionError:
        raise error(f"{where}JSON nested too deeply") from None
    if not isinstance(raw, dict):
        raise error(f"{where}top level must be a JSON object")
    try:
        return build(raw)
    except error as exc:
        raise error(f"{where}{exc}") from None


def load_json(path: str | Path, error: type[Exception], build: Callable[[dict], T]) -> T:
    """``build`` applied to the JSON object in the file at ``path``; any
    fault, reading the file included, raises ``error`` naming ``path``."""
    path = Path(path)
    return decode_object(_read_text(path, error), error, build, f"{path}: ")


def load_lines(path: str | Path, error: type[Exception], build: Callable[[dict], T]) -> list[T]:
    """``build`` applied to the JSON object on each non-blank line of the
    file at ``path``, in order, by :func:`load_json`'s rule with
    ``{path}:{lineno}: `` in front of a fault's text. Lines end only at
    newlines (``\r\n`` and ``\r`` read as one), so a line separator such as
    U+2028 inside a JSON string stays in its line."""
    path = Path(path)
    return [decode_object(line, error, build, f"{path}:{lineno}: ")
            for lineno, line in enumerate(_read_text(path, error).split("\n"), 1)
            if line.strip()]


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
