import json
import os

import pytest

import sceneground.atomic as atomic_module
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import DefinitionError
from sceneground.expression import ALL_RELATIONS
from sceneground.registry import EncoderRegistry, RegistryError, load_registry, save_registry


def test_save_then_load_round_trips(tmp_path):
    registry = EncoderRegistry()
    registry.accept(encoder_to_dsl("near"))
    path = tmp_path / "registry.json"
    save_registry(registry, path)
    loaded = load_registry(path)
    assert loaded.library == registry.library
    assert loaded.snapshot() == registry.snapshot()
    assert os.listdir(tmp_path) == ["registry.json"]


def test_crash_during_save_keeps_the_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "registry.json"
    save_registry(EncoderRegistry(), path)
    path.chmod(0o640)
    before = path.read_bytes()

    def crash(fd):
        raise OSError("disk full")

    monkeypatch.setattr(atomic_module.os, "fsync", crash)
    registry = EncoderRegistry()
    registry.accept(encoder_to_dsl("near"))
    with pytest.raises(OSError, match="disk full"):
        save_registry(registry, path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["registry.json"]

    monkeypatch.undo()
    save_registry(registry, path)
    assert len(json.loads(path.read_text())["library"]) == 1
    assert path.stat().st_mode & 0o777 == 0o640


@pytest.mark.parametrize("text", [
    "{truncated",
    "[]",
    '{"library": {}}',
    '{"active": []}',
    '{"active": {"near": ' + json.dumps(encoder_to_dsl("far").to_dict()) + "}}",
])
def test_malformed_registry_raises_registry_error(tmp_path, text):
    path = tmp_path / "registry.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RegistryError):
        load_registry(path)


def test_registry_with_bad_definition_raises_definition_error(tmp_path):
    path = tmp_path / "registry.json"
    path.write_text(json.dumps({"library": [{"relation": "near"}]}), encoding="utf-8")
    with pytest.raises(DefinitionError):
        load_registry(path)


def test_registry_file_keeps_the_relation_order(tmp_path):
    """``install`` replaces an active entry in place, so a saved file lists
    the relations in table order whatever order they were installed in."""
    registry = EncoderRegistry()
    for relation in ("far", "near", "between"):
        registry.install(encoder_to_dsl(relation))
    path = tmp_path / "registry.json"
    save_registry(registry, path)
    assert list(json.loads(path.read_text(encoding="utf-8"))["active"]) == list(ALL_RELATIONS)
