"""Every input file is read and decoded by ``sceneground.atomic``, so each
loader words a file's faults the same way, naming the file first, and a
line file words each line's faults as a JSON file does, behind its line.
Every file the package writes is replaced atomically by the same module.
The LLM client decodes its reply blocks and response bodies through
``atomic.decode_object`` too, so JSON nested past the recursion limit is a
malformed reply there, not a crash.

A package module other than ``atomic.py`` that calls ``read_text``, ``open``,
``json.load`` or ``json.loads`` is a second reader or decoder with its own
fault policy; :data:`ALLOWED` lists the callers that stay, each with its
reason.
"""

import ast
import json
from pathlib import Path

import pytest

import sceneground
from sceneground.atomic import InputError, load_lines
from sceneground.bench import DatasetError, load_dataset
from sceneground.cli import main
from sceneground.dsl import DefinitionError, load_definition
from sceneground.optimizer import SuiteError, load_suite
from sceneground.registry import RegistryError, load_registry
from sceneground.scene import SceneError, load_scene

from test_cli import DEEP_JSON, INPUT_FAULTS, write_input_fault

# "module.qualified_name" of a caller -> why it reads or decodes a file itself
ALLOWED = {
    "llm._load_template": "reads a prompt template shipped as package data, not an input file",
    "stub_server.StubServer.start.Handler.do_POST": "decodes the request body the test "
                                                    "endpoint receives",
}


def _file_reads(tree: ast.Module):
    """Qualified names of the functions (or ``<module>``) in ``tree`` that
    call ``read_text``, ``open``, ``json.load`` or ``json.loads``."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (isinstance(func, ast.Name) and func.id == "open"
                        or isinstance(func, ast.Attribute) and (
                            func.attr in ("read_text", "open")
                            or func.attr in ("load", "loads") and isinstance(func.value, ast.Name)
                            and func.value.id == "json")):
                    yield scope or "<module>"
            yield from visit(child, scope)

    return set(visit(tree, ""))


def test_only_atomic_reads_files():
    readers = set()
    for path in sorted(Path(sceneground.__file__).resolve().parent.glob("*.py")):
        if path.name != "atomic.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers |= {f"{path.stem}.{name}" for name in _file_reads(tree)}
    # an entry whose caller no longer reads a file is stale
    assert sorted(readers) == sorted(ALLOWED)


def test_the_guard_sees_each_kind_of_call():
    tree = ast.parse("import json\n"
                     "def a(p): return p.read_text()\n"
                     "class B:\n"
                     "    def c(self, p): return open(p)\n"
                     "    def d(self, p): return p.open()\n"
                     "def e(f): return json.load(f)\n"
                     "def f(s): return json.loads(s)\n"
                     "def g(fd): return os.fdopen(fd)\n")
    assert _file_reads(tree) == {"a", "B.c", "B.d", "e", "f"}


def _file_writes(tree: ast.Module):
    """Qualified names of the functions (or ``<module>``) in ``tree`` that
    call ``write_text``, ``write_bytes`` or ``json.dump``, or ``open`` in a
    mode that writes (or one not given as a literal)."""

    def writes(call: ast.Call) -> bool:
        func = call.func
        if isinstance(func, ast.Attribute) and (
                func.attr in ("write_text", "write_bytes")
                or func.attr == "dump" and isinstance(func.value, ast.Name)
                and func.value.id == "json"):
            return True
        if isinstance(func, ast.Name) and func.id == "open":
            position = 1  # open(file, mode)
        elif isinstance(func, ast.Attribute) and func.attr == "open":
            position = 0  # Path.open(mode)
        else:
            return False
        modes = [*call.args[position:position + 1],
                 *(k.value for k in call.keywords if k.arg == "mode")]
        return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str))
                   or set(m.value) & set("wax+") for m in modes)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call) and writes(child):
                yield scope or "<module>"
            yield from visit(child, scope)

    return set(visit(tree, ""))


def test_only_atomic_writes_files():
    """Every file the package writes is replaced through
    ``atomic.write_text_atomic``, so a crash leaves the old file whole."""
    writers = set()
    for path in sorted(Path(sceneground.__file__).resolve().parent.glob("*.py")):
        if path.name != "atomic.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            writers |= {f"{path.stem}.{name}" for name in _file_writes(tree)}
    assert sorted(writers) == []


def test_the_write_guard_sees_each_kind_of_call():
    tree = ast.parse("import json\n"
                     "def a(p): p.write_text('x')\n"
                     "class B:\n"
                     "    def c(self, p): p.write_bytes(b'x')\n"
                     "    def d(self, p): return open(p, 'w')\n"
                     "    def e(self, p): return p.open(mode='ab')\n"
                     "def f(v, fh): json.dump(v, fh)\n"
                     "def g(p, m): return open(p, m)\n"
                     "def h(p): return open(p), open(p, 'rb'), p.open()\n"
                     "def i(p): write_text_atomic(p, json.dumps({}))\n")
    assert _file_writes(tree) == {"a", "B.c", "B.d", "B.e", "f", "g"}


def _raised(error, load, *args):
    with pytest.raises(error) as raised:
        load(*args)
    return str(raised.value)


def _printed(capsys, *argv):
    assert main(list(argv)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.endswith("\n")
    return err[len("error: "):-1]


# loader -> the text of its fault for the file at path (for a loader of
# LINE_FILES, a dataset's expressions file or the lines that parse --in reads)
LOADERS = {
    "scene": lambda path, capsys: _raised(SceneError, load_scene, path),
    "definition": lambda path, capsys: _raised(DefinitionError, load_definition, path),
    "registry": lambda path, capsys: _raised(RegistryError, load_registry, path),
    "suite": lambda path, capsys: _raised(SuiteError, load_suite, path, path.parent),
    "config": lambda path, capsys: _printed(capsys, "parse", "--config", str(path)),
    "expression_file": lambda path, capsys: _printed(capsys, "parse", "--offline-expr", str(path)),
    "dataset": lambda path, capsys: _raised(DatasetError, load_dataset, path.parent),
    "expression_lines": lambda path, capsys: _printed(capsys, "parse", "--in", str(path)),
}
LINE_FILES = {"dataset", "expression_lines"}

# each of test_cli.INPUT_FAULTS -> its text; {at} is the path, and for a
# line file the path and the line (each faulty file has one line)
FAULT_TEXTS = {
    "missing": "cannot read {path}: [Errno 2] No such file or directory: '{path}'",
    "directory": "cannot read {path}: [Errno 21] Is a directory: '{path}'",
    "not_utf8": "cannot read {path}: 'utf-8' codec can't decode byte 0xff in position 7: "
                "invalid start byte",
    "truncated": "{at}: invalid JSON at line 1 column 7: Expecting value",
    "deep_json": "{at}: JSON nested too deeply",
    "top_level_array": "{at}: top level must be a JSON object",
}


@pytest.mark.parametrize("fault", INPUT_FAULTS)
@pytest.mark.parametrize("loader", LOADERS)
def test_each_loader_words_a_file_fault_the_same(tmp_path, capsys, loader, fault):
    line_file = loader in LINE_FILES
    path = tmp_path / ("expressions.jsonl" if line_file else "input.json")
    write_input_fault(path, fault)
    expected = FAULT_TEXTS[fault].format(path=path, at=f"{path}:1" if line_file else path)
    assert LOADERS[loader](path, capsys) == expected


# a faulty line -> its text behind "PATH:LINE: "
LINE_FAULTS = {
    "truncated": ('{"category": ', "invalid JSON at line 1 column 14: Expecting value"),
    "deep_json": (DEEP_JSON, "JSON nested too deeply"),
    "not_an_object": ("[1, 2]", "top level must be a JSON object"),
    "two_entries_on_one_line": ('{"category": "chair"}{"category": "chair"}',
                                "invalid JSON at line 1 column 22: Extra data"),
    "an_entry_split_over_two_lines": ('{"category":\n"chair"}',
                                      "invalid JSON at line 1 column 13: Expecting value"),
}


@pytest.mark.parametrize("line, text", LINE_FAULTS.values(), ids=LINE_FAULTS)
def test_both_line_files_word_a_faulty_line_alike(tmp_path, capsys, line, text):
    """A dataset's ``expressions.jsonl`` and ``parse --in``'s file give one
    faulty line the same text, naming the file and the line."""
    path = tmp_path / "expressions.jsonl"
    path.write_text(f"\n{line}\n", encoding="utf-8")
    expected = f"{path}:2: {text}"
    assert _raised(DatasetError, load_dataset, tmp_path) == expected
    assert _printed(capsys, "parse", "--in", str(path)) == expected


def test_a_bad_registry_entry_names_the_file_and_the_entry(tmp_path):
    path = tmp_path / "registry.json"
    bad = {"relation": "near", "body": {"get": []}}
    path.write_text(json.dumps({"library": [bad]}), encoding="utf-8")
    assert _raised(DefinitionError, load_registry, path) \
        == f"{path}: library[0]: body: unknown accessor []"
    path.write_text(json.dumps({"active": {"near": bad}}), encoding="utf-8")
    assert _raised(DefinitionError, load_registry, path) \
        == f'{path}: active["near"]: body: unknown accessor []'


@pytest.mark.parametrize("text, values", [
    ('{"v": "a"}\n\n{"v": "b"}\n', ["a", "b"]),
    ('{"v": "a"}\r\n{"v": "b"}', ["a", "b"]),
    ('{"v": "a"}\r{"v": "b"}\r', ["a", "b"]),
    ('{"v": "a\u2028b"}\n{"v": "\u2029"}\n', ["a\u2028b", "\u2029"]),
    ('{"v": "a\u0085b"}\n', ["a\u0085b"]),
], ids=["lf", "crlf", "cr", "line_separators", "next_line"])
def test_lines_end_only_at_newlines(tmp_path, text, values):
    """A JSON string may hold U+2028, U+2029 or U+0085 raw; only ``\\n``,
    ``\\r\\n`` and ``\\r`` end a line."""
    path = tmp_path / "lines.jsonl"
    path.write_bytes(text.encode("utf-8"))
    assert load_lines(path, InputError, lambda raw: raw["v"]) == values
