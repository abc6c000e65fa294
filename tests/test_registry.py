import gc
import json
import os
import tracemalloc

import numpy as np
import pytest

import sceneground.atomic as atomic_module
import sceneground.registry as registry_module
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import DefinitionError
from sceneground.expression import ALL_RELATIONS
from sceneground.mutation import mutate_definition
from sceneground.optimizer import MutationSource, OptimizerConfig, optimize_encoder
from sceneground.registry import EncoderRegistry, RegistryError, load_registry, save_registry

from helpers import build_margin_suite


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
    '{"active": {}, "library": [], "cases": []}',
    '{"relation": "near", "cases": []}',  # a suite
    '{"scene_id": "s", "objects": []}',  # a scene
])
def test_malformed_registry_raises_registry_error(tmp_path, text):
    path = tmp_path / "registry.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(RegistryError):
        load_registry(path)


@pytest.mark.parametrize("text", ["{}", '{"active": {}}', '{"library": []}'])
def test_a_registry_file_may_leave_out_either_key(tmp_path, text):
    path = tmp_path / "registry.json"
    path.write_text(text, encoding="utf-8")
    assert load_registry(path).to_dict() == EncoderRegistry().to_dict()


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


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


def test_a_saved_winner_costs_its_compact_json(tmp_path):
    """``save_registry`` writes compact JSON: a fresh builtins-only file is
    under 40 KB (275 KB indented), and each accepted ``between`` winner adds
    under 16 KB (about 150 KB indented), about its body's compact size."""
    registry = EncoderRegistry()
    path = tmp_path / "registry.json"
    save_registry(registry, path)
    fresh = path.stat().st_size
    assert fresh < 40_000
    defn = encoder_to_dsl("between")
    for seed in range(5):
        defn = mutate_definition(defn, seed)
        registry.accept(defn)
    save_registry(registry, path)
    assert (path.stat().st_size - fresh) / 5 < 16_000
    assert load_registry(path).library == registry.library


def _carries_no_memo(defn):
    return "_root" not in defn.__dict__ and "_digest" not in defn.__dict__


def test_the_packed_library_round_trips_every_accepted_definition(tmp_path):
    suites = {relation: build_margin_suite(relation, np.random.default_rng(200 + k), n_cases=8)
              for k, relation in enumerate(("at_the_corner", "near", "between"))}
    registry = EncoderRegistry()
    accepted = []
    for k, relation in enumerate(("at_the_corner", "near", "at_the_corner", "near", "between")):
        best, _ = optimize_encoder(relation, suites[relation], MutationSource(), registry,
                                   OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=k))
        accepted.append(best)
    library = registry.library
    assert [json.dumps(d.to_dict()) for d in library] == [json.dumps(d.to_dict()) for d in accepted]
    assert all(map(_carries_no_memo, library))
    assert all(d.body is not a.body for d, a in zip(library, accepted))
    for relation in ("at_the_corner", "near", "between"):
        latest = registry.accepted_definition(relation)
        assert _carries_no_memo(latest)
        assert latest == [a for a in accepted if a.relation == relation][-1]
    assert registry.accepted_definition("far") is None

    path = tmp_path / "registry.json"
    save_registry(registry, path)
    reference = {"active": {name: d.to_dict() for name, d in registry.snapshot().items()},
                 "library": [d.to_dict() for d in accepted]}
    text = path.read_text(encoding="utf-8")
    assert json.loads(text) == reference
    # compact JSON, one line per active entry and one per library entry
    entries = [*(f"{json.dumps(name)}:{_compact(d)}" for name, d in reference["active"].items()),
               *map(_compact, reference["library"])]
    n = len(reference["active"])
    assert [line.rstrip(",") for line in text.split("\n")] == \
        ['{"active":{', *entries[:n], "}", '"library":[', *entries[n:], "]}", ""]
    loaded = load_registry(path)
    assert loaded.library == library
    assert all(map(_carries_no_memo, loaded.library))


def test_registry_readers_unpack_outside_the_lock(monkeypatch):
    """``library``, ``accepted_definition`` and ``to_dict`` copy the entries
    under the lock and unpickle them after releasing it, so a large library
    does not block ``accept`` or ``snapshot`` while it is read."""
    registry = EncoderRegistry()
    registry.accept(encoder_to_dsl("near"))
    unpack = registry_module._unpack
    locked = []
    monkeypatch.setattr(registry_module, "_unpack",
                        lambda entry: locked.append(registry._lock.locked()) or unpack(entry))
    registry.library
    registry.accepted_definition("near")
    registry.to_dict()
    assert locked == [False, False, False]


def test_an_accepted_winner_retains_little_memory():
    """The library keeps a winner's body packed, not its tree of path
    copies: 300 three-generation ``near`` mutants retain under 1,200 B each,
    where keeping their trees retains about 2,400 B each."""
    n = 300
    mutate_definition(encoder_to_dsl("near"), 0)  # warm the module's memos
    registry = EncoderRegistry()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in range(n):
            defn = encoder_to_dsl("near")
            for generation in range(3):
                defn = mutate_definition(defn, 3 * k + generation)
            registry.accept(defn)
        del defn
        registry.install(encoder_to_dsl("near"))  # let go of the last winner
        gc.collect()
        retained = (tracemalloc.get_traced_memory()[0] - before) / n
    finally:
        tracemalloc.stop()
    assert len(registry.library) == n
    assert retained < 1200, f"{retained:.0f} B retained per winner"
