import csv
import gc
import hashlib
import json
import shutil

import numpy as np
import pytest

import sceneground.bench as bench_module
import sceneground.dsl as dsl
import sceneground.executor as executor_module
from sceneground.bench import (HEATMAP_RELATIONS, DatasetError, load_dataset, report_to_dict,
                               run_bench)
from sceneground.dsl import EncoderDefinition
from sceneground.executor import FeatureCache, condition_level_eval, execute, score_features
from sceneground.expression import collect_categories, collect_conditions
from sceneground.minibench import generate_mini_benchmark
from sceneground.registry import EncoderRegistry

from oracles import prefix_scores


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("minibench")
    manifest = generate_mini_benchmark(root, seed=7)
    assert manifest["n_queries"] == 40
    return root


@pytest.fixture(scope="module")
def registry():
    return EncoderRegistry()


def test_dataset_loads(dataset):
    scenes, entries = load_dataset(dataset)
    assert len(scenes) == 5
    assert len(entries) == 40
    relations = set()
    for entry in entries:
        stack = [entry.expression]
        while stack:
            node = stack.pop()
            for clause in node.relations:
                relations.add(clause.relation)
                stack.extend(clause.anchors)
    assert len(relations) == 16  # every relation appears in the benchmark


def test_benchmark_accuracy_and_baseline(dataset, registry):
    report = run_bench(dataset, registry, with_baseline=True)
    assert report.aggregates["accuracy"] >= 0.90
    assert report.aggregates["random_baseline"] <= 0.30
    assert report.aggregates["condition_precision"] >= 0.9
    assert report.aggregates["condition_recall"] >= 0.9


def _relations_of(expression):
    stack, relations = [expression], set()
    while stack:
        node = stack.pop()
        for clause in node.relations:
            relations.add(clause.relation)
            stack.extend(clause.anchors)
    return relations


def _count_evaluations(monkeypatch):
    calls = []
    original = executor_module.eval_encoders

    def counting_eval(defns, scene, *args, **kwargs):
        calls.extend((scene.scene_id, defn.relation) for defn in defns)
        return original(defns, scene, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", counting_eval)
    return calls


def test_run_bench_evaluates_each_feature_once(dataset, registry, monkeypatch, tmp_path):
    _, entries = load_dataset(dataset)
    pairs = {(e.scene_id, r) for e in entries for r in _relations_of(e.expression)}
    calls = _count_evaluations(monkeypatch)
    run_bench(dataset, registry)
    assert sorted(calls) == sorted(pairs)

    # the plot files come from the same caches: only the heatmap relations are new
    calls.clear()
    run_bench(dataset, registry, plots_dir=tmp_path / "plots")
    heatmaps = {(e.scene_id, r) for e in entries for r in HEATMAP_RELATIONS}
    assert sorted(calls) == sorted(pairs | heatmaps)


def test_each_scene_request_is_one_program_built_once_per_registry(tmp_path, monkeypatch):
    """A run evaluates each scene's relations in one eval_encoders call, and
    the mini benchmark asks for the same programs at every seed: runs at
    seeds 1-3 on one registry build none that seed 0 did not."""
    registry = EncoderRegistry()
    original = executor_module.eval_encoders
    calls = []

    def counting_eval(defns, scene, *args, **kwargs):
        calls.append(scene.scene_id)
        return original(defns, scene, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", counting_eval)
    dsl._shared_dag.cache_clear()
    for seed in range(4):
        generate_mini_benchmark(tmp_path / str(seed), seed=seed)
        scenes, _ = load_dataset(tmp_path / str(seed))
        calls.clear()
        run_bench(tmp_path / str(seed), registry)
        assert sorted(calls) == sorted(scenes)
        assert dsl._shared_dag.cache_info().misses == len(scenes)


def test_run_bench_computes_each_scenes_categories_in_one_pass(dataset, registry, monkeypatch):
    _, entries = load_dataset(dataset)
    wanted: dict[str, set[str]] = {}
    for entry in entries:
        stack = [entry.expression]
        while stack:
            node = stack.pop()
            wanted.setdefault(entry.scene_id, set()).add(node.category)
            stack.extend(a for clause in node.relations for a in clause.anchors)
    original = executor_module.exact_match_rows
    calls = []

    def counting_rows(scene, categories):
        calls.append((scene.scene_id, sorted(categories)))
        return original(scene, categories)

    monkeypatch.setattr(executor_module, "exact_match_rows", counting_rows)
    run_bench(dataset, registry)
    assert sorted(calls) == sorted((sid, sorted(names)) for sid, names in wanted.items())


def test_run_bench_matches_fresh_cache_reference(dataset, registry):
    scenes, entries = load_dataset(dataset)
    report = run_bench(dataset, registry, with_baseline=True)
    expected_argmax = [
        execute(e.expression, scenes[e.scene_id],
                FeatureCache(scenes[e.scene_id], registry)).argmax_id()
        for e in entries
    ]
    assert [r.argmax for r in report.records] == expected_argmax
    assert [r.ground_truth for r in report.records] == [e.ground_truth for e in entries]
    assert [r.correct for r in report.records] == [
        a == e.ground_truth for a, e in zip(expected_argmax, entries)]
    precision, recall = condition_level_eval(
        [(e.scene_id, e.expression, e.ground_truth) for e in entries], scenes, registry)
    aggregates = dict(report.aggregates)
    assert aggregates.pop("mean_wall_ms") > 0
    assert aggregates.pop("feature_ms") > 0
    assert aggregates == {
        "n_records": len(entries),
        "accuracy": sum(a == e.ground_truth for a, e in zip(expected_argmax, entries))
        / len(entries),
        "condition_precision": precision,
        "condition_recall": recall,
        "random_baseline": report.aggregates["random_baseline"],
    }
    assert report.config == {"dataset": str(dataset), "workers": 1}


def test_run_bench_executes_each_entry_once(dataset, registry, monkeypatch, tmp_path):
    """Grounding, condition-level scores and step files share one scoring
    per entry, from the pre-pass's features: 40 on the mini benchmark, with
    or without plot files. The pre-pass computes each scene's relations and
    its categories in one call each."""
    scenes, entries = load_dataset(dataset)
    executed = []
    real = executor_module.score_features

    def counting_score(expr, object_ids, categories, relations):
        executed.append(expr)
        return real(expr, object_ids, categories, relations)

    requests = []
    real_relations = executor_module.relation_features
    real_categories = executor_module.category_features

    def counting_relations(scene, geometry, definitions, relations):
        requests.append("relation")
        return real_relations(scene, geometry, definitions, relations)

    def counting_categories(scene, categories):
        requests.append("category")
        return real_categories(scene, categories)

    monkeypatch.setattr(executor_module, "score_features", counting_score)
    monkeypatch.setattr(bench_module, "score_features", counting_score)
    monkeypatch.setattr(bench_module, "relation_features", counting_relations)
    monkeypatch.setattr(bench_module, "category_features", counting_categories)
    expected = [e.expression for e in entries]
    assert len(expected) == 40
    for kwargs in ({}, {"workers": 4, "plots_dir": tmp_path / "plots"}):
        executed.clear()
        requests.clear()
        run_bench(dataset, registry, **kwargs)
        assert sorted(map(repr, executed)) == sorted(map(repr, expected))
        assert sorted(requests) == ["category"] * len(scenes) + ["relation"] * len(scenes)


def test_a_run_grounds_with_one_encoder_set(dataset, monkeypatch):
    """An encoder accepted into the registry while a run's first scene is
    evaluated reaches no scene of that run: the run reads one snapshot."""
    registry = EncoderRegistry()
    builtin_near = registry.active_definition("near")
    other_near = EncoderDefinition(relation="near", body=registry.active_definition("far").body)
    used = []
    original = executor_module.eval_encoders

    def accepting_eval(defns, scene, *args, **kwargs):
        registry.accept(other_near)
        used.extend((scene.scene_id, defn) for defn in defns if defn.relation == "near")
        return original(defns, scene, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", accepting_eval)
    run_bench(dataset, registry)
    assert registry.active_definition("near") is other_near
    scenes, entries = load_dataset(dataset)
    assert {sid for sid, _ in used} == {
        e.scene_id for e in entries if "near" in _relations_of(e.expression)}
    assert len(used) > 1 and all(defn is builtin_near for _, defn in used)


@pytest.mark.parametrize("seed", [0, 1, 2, 3, 7])
def test_score_features_equals_execute_on_every_entry(registry, tmp_path, seed):
    """Scoring an entry from a scene's pre-pass features, as run_bench does,
    gives execute's score and terms byte for byte."""
    generate_mini_benchmark(tmp_path, seed=seed)
    scenes, entries = load_dataset(tmp_path)
    features = {}
    for sid, scene in scenes.items():
        exprs = [e.expression for e in entries if e.scene_id == sid]
        cache = FeatureCache(scene, registry)
        features[sid] = (
            cache.category_features({c for x in exprs for c in collect_categories(x)}),
            cache.relation_features({clause.relation for x in exprs
                                     for _, clause in collect_conditions(x)}))
    for entry in entries:
        scene = scenes[entry.scene_id]
        got = score_features(entry.expression, scene.ids, *features[entry.scene_id])
        want = execute(entry.expression, scene, FeatureCache(scene, registry))
        assert got.object_ids == want.object_ids
        assert got.data.tobytes() == want.data.tobytes()
        assert [t.tobytes() for t in got.terms] == [t.tobytes() for t in want.terms]


def test_step_files_hold_the_clause_prefix_scores(dataset, registry, tmp_path):
    scenes, entries = load_dataset(dataset)
    out = tmp_path / "plots"
    run_bench(dataset, registry, plots_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    assert [s["index"] for s in manifest["steps"]] == list(range(len(entries)))
    for step, entry in zip(manifest["steps"], entries):
        scene = scenes[entry.scene_id]
        with open(out / step["file"]) as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["step", *[f"obj_{oid}" for oid in scene.ids]]
        n_clauses = len(entry.expression.relations)
        assert [row[0] for row in rows] == \
            ["category", *[f"clause_{n}" for n in range(1, n_clauses + 1)]]
        expected = prefix_scores(entry.expression, scene, FeatureCache(scene, registry))
        assert [[float(v) for v in row[1:]] for row in rows] == [e.tolist() for e in expected]


def test_worker_scheduling_keeps_input_order(dataset, registry):
    serial = run_bench(dataset, registry, workers=1)
    threaded = run_bench(dataset, registry, workers=6)
    assert [r.expression for r in serial.records] == [r.expression for r in threaded.records]
    assert [r.argmax for r in serial.records] == [r.argmax for r in threaded.records]


def test_generator_is_deterministic(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    generate_mini_benchmark(a, seed=7)
    generate_mini_benchmark(b, seed=7)
    assert (a / "expressions.jsonl").read_bytes() == (b / "expressions.jsonl").read_bytes()
    for scene_path in sorted((a / "scenes").glob("*.json")):
        assert scene_path.read_bytes() == (b / "scenes" / scene_path.name).read_bytes()


def test_heatmap_csvs_reflect_relation_structure(dataset, registry, tmp_path):
    out = tmp_path / "plots"
    run_bench(dataset, registry, plots_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    by_key = {(h["scene_id"], h["relation"]): h["file"] for h in manifest["heatmaps"]}

    def load_matrix(scene_id, relation):
        with open(out / by_key[(scene_id, relation)]) as fh:
            rows = list(csv.reader(fh))
        return np.array([[float(v) for v in row] for row in rows[1:]])

    near = load_matrix("mini_prox", "near")
    far = load_matrix("mini_prox", "far")
    left = load_matrix("mini_prox", "left")
    right = load_matrix("mini_prox", "right")
    assert np.array_equal(near, near.T)
    assert np.array_equal(far, far.T)
    assert not np.any((left > 0) & (left.T > 0))
    assert not np.any((right > 0) & (right.T > 0))
    assert np.all(np.diag(near) == 0)


def test_plot_files_are_named_by_position_not_scene_id(dataset, registry, tmp_path):
    """A scene id that is no safe file name (``room/1``) still gets its
    heatmaps, found through the manifest, and every file lands in the
    plots directory itself."""
    renamed = tmp_path / "renamed"
    shutil.copytree(dataset, renamed)
    scene_path = renamed / "scenes" / "mini_prox.json"
    raw = json.loads(scene_path.read_text())
    raw["scene_id"] = "room/1"
    scene_path.write_text(json.dumps(raw))
    lines = (renamed / "expressions.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines]
    for record in records:
        if record["scene_id"] == "mini_prox":
            record["scene_id"] = "room/1"
    (renamed / "expressions.jsonl").write_text("\n".join(map(json.dumps, records)) + "\n")
    out = tmp_path / "plots"
    run_bench(renamed, registry, plots_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    files = {h["file"] for h in manifest["heatmaps"] if h["scene_id"] == "room/1"}
    # "room/1" is the last of the five scene ids in sorted order
    assert files == {f"heatmap_004_{r}.csv" for r in HEATMAP_RELATIONS}
    named = [entry["file"] for entry in manifest["heatmaps"] + manifest["steps"]]
    assert sorted(p.name for p in out.iterdir()) == sorted(named + ["manifest.json"])


def test_missing_ground_truth_rejected(dataset, registry, tmp_path):
    import shutil

    broken = tmp_path / "broken"
    shutil.copytree(dataset, broken)
    lines = (broken / "expressions.jsonl").read_text().splitlines()
    record = json.loads(lines[0])
    del record["ground_truth"]
    lines[0] = json.dumps(record)
    (broken / "expressions.jsonl").write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(ValueError, match="ground_truth"):
        run_bench(broken, registry)


def test_plot_files_are_written_atomically(dataset, registry, tmp_path, monkeypatch):
    written = []
    original = bench_module.write_text_atomic

    def recording(path, text):
        written.append(path.name)
        original(path, text)

    monkeypatch.setattr(bench_module, "write_text_atomic", recording)
    out = tmp_path / "plots"
    run_bench(dataset, registry, plots_dir=out)
    manifest = json.loads((out / "manifest.json").read_text())
    named = [entry["file"] for entry in manifest["heatmaps"] + manifest["steps"]]
    assert sorted(written) == sorted(named + ["manifest.json"])
    assert sorted(p.name for p in out.iterdir()) == sorted(written)


def test_a_warm_run_leaves_no_reference_cycles(dataset, registry):
    """A bench run and an execute build no reference cycles, so none of their
    objects waits for the cyclic collector."""
    scenes, entries = load_dataset(dataset)
    entry = entries[0]
    cache = FeatureCache(scenes[entry.scene_id], registry)
    run_bench(dataset, registry)  # warm-up: memoized programs and imports
    execute(entry.expression, cache.scene, cache)
    gc.collect()
    old = gc.get_debug()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        run_bench(dataset, registry)
        execute(entry.expression, cache.scene, FeatureCache(cache.scene, registry))
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(old)
        gc.garbage.clear()


GOOD_LINE = {"scene_id": "mini_prox", "utterance": "the chair near the table",
             "expression": {"category": "chair", "relations": [
                 {"relation_name": "near", "anchors": [{"category": "table"}]}]},
             "ground_truth": 10}
KNOWN = ("large, small, high, low, on_the_floor, against_the_wall, at_the_corner, near, far, "
         "above, below, left, right, front, behind, between")


def _line(**changes):
    """:data:`GOOD_LINE` as JSON with ``changes`` applied; None drops a key."""
    raw = {**GOOD_LINE, **changes}
    return json.dumps({k: v for k, v in raw.items() if v is not None})


def _nested(depth):
    expression = {"category": "chair"}
    for _ in range(depth - 1):
        expression = {"category": "chair",
                      "relations": [{"relation_name": "near", "anchors": [expression]}]}
    return expression


_GOOD = json.dumps(GOOD_LINE)
_SPLIT = _GOOD.index(', "ground_truth"')

# (lines of expressions.jsonl, the DatasetError's text with {file} for its path)
LOAD_FAULTS = {
    "invalid_json": ([_GOOD, '{"scene_id": '],
                     "{file}:2: invalid JSON at line 1 column 14: Expecting value"),
    "deep_json": ([_GOOD, "[" * 100_000 + "]" * 100_000], "{file}:2: JSON nested too deeply"),
    "not_an_object": ([_GOOD, "[1, 2]"], "{file}:2: top level must be a JSON object"),
    "missing_scene_id": ([_GOOD, _line(scene_id=None)], "{file}:2: missing scene_id"),
    "missing_expression": ([_GOOD, _line(expression=None)], "{file}:2: missing expression"),
    "missing_ground_truth": ([_GOOD, _line(ground_truth=None)], "{file}:2: missing ground_truth"),
    "missing_all": (["{}"], "{file}:1: missing scene_id"),
    "scene_id_list": ([_line(scene_id=["mini_prox"])], "{file}:1: scene_id must be a string"),
    "ground_truth_string": ([_line(ground_truth="3")],
                            "{file}:1: ground_truth must be an integer object id"),
    "ground_truth_float": ([_line(ground_truth=2.5)],
                           "{file}:1: ground_truth must be an integer object id"),
    "ground_truth_bool": ([_line(ground_truth=True)],
                          "{file}:1: ground_truth must be an integer object id"),
    "scene_id_before_ground_truth": ([_line(scene_id=3, ground_truth="3")],
                                     "{file}:1: scene_id must be a string"),
    "ground_truth_type_before_scene": ([_line(scene_id="nowhere", ground_truth="3")],
                                       "{file}:1: ground_truth must be an integer object id"),
    "unknown_scene": ([_line(scene_id="nowhere")], "{file}:1: unknown scene 'nowhere'"),
    "ground_truth_not_in_scene": ([_line(ground_truth=999)],
                                  "{file}:1: ground truth 999 not in scene 'mini_prox'"),
    "scene_before_expression": ([_line(ground_truth=999, expression=5)],
                                "{file}:1: ground truth 999 not in scene 'mini_prox'"),
    "expression_not_an_object": ([_line(expression=5)], "{file}:1: $: expected an object"),
    "expression_null": ([json.dumps({**GOOD_LINE, "expression": None})],
                        "{file}:1: $: expected an object"),
    "no_category": ([_line(expression={"relations": []})], "{file}:1: $: missing category"),
    "blank_category": ([_line(expression={"category": " \t"})], "{file}:1: $: missing category"),
    "category_before_relations": ([_line(expression={"category": 3, "relations": 4})],
                                  "{file}:1: $: missing category"),
    "relations_not_a_list": ([_line(expression={"category": "chair", "relations": {}})],
                             "{file}:1: $: relations must be a list"),
    "clause_not_an_object": ([_line(expression={"category": "chair", "relations": [5]})],
                             "{file}:1: $.relations[0]: clause must be an object"),
    "no_relation_name": ([_line(expression={"category": "chair", "relations": [{}]})],
                         "{file}:1: $.relations[0]: missing relation_name"),
    "null_relation_name": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": None, "relation": "large"}]})],
        "{file}:1: $.relations[0]: missing relation_name"),
    "unknown_relation": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "near", "anchors": [{"category": "table"}]},
        {"relation": "Hovering Over"}]})],
        "{file}:1: $.relations[1]: unknown relation 'Hovering Over'; known relations: " + KNOWN),
    "anchors_not_a_list": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "near", "anchors": {"category": "table"}}]})],
        "{file}:1: $.relations[0]: anchors must be a list"),
    "null_anchors": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "near", "anchors": None, "objects": [{"category": "table"}]}]})],
        "{file}:1: $.relations[0]: anchors must be a list"),
    "anchor_fault": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "large"},
        {"relation_name": "near", "objects": [{"category": "table", "relations": [
            {"relation_name": "between", "anchors": [{"category": "a"}, {"category": ""}]}]}]}]})],
        "{file}:1: $.relations[1].anchors[0].relations[0].anchors[1]: missing category"),
    "negative_not_a_bool": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "near", "anchors": [{"category": "table"}], "negative": 0}]})],
        "{file}:1: $.relations[0]: negative must be a boolean"),
    "anchor_before_negative": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "near", "anchors": [{}], "negative": "no"}]})],
        "{file}:1: $.relations[0].anchors[0]: missing category"),
    "negative_before_arity": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "near", "negative": "no"}]})],
        "{file}:1: $.relations[0]: negative must be a boolean"),
    "arity": ([_line(expression={"category": "chair", "relations": [
        {"relation_name": "On the-Floor", "anchors": [{"category": "table"}]}]})],
        "{file}:1: $.relations[0]: relation 'on_the_floor' takes 0 anchor(s), got 1"),
    "too_deep": ([_line(expression=_nested(9))],
                 "{file}:1: $" + ".relations[0].anchors[0]" * 8
                 + ": expression nesting exceeds depth 8"),
    "utterance_not_a_string": ([_line(utterance={"x": [1, 2]})],
                               "{file}:1: utterance must be a string"),
    "expression_before_utterance": ([_line(utterance=3, expression={})],
                                    "{file}:1: $: missing category"),
    "blank_lines_keep_line_numbers": (["", "  ", _GOOD, "\t", "[1, 2]"],
                                      "{file}:5: top level must be a JSON object"),
    "empty_file": ([], "{file}: no entries"),
    "only_blank_lines": (["", " ", "\t"], "{file}: no entries"),
    "two_entries_on_one_line": ([_GOOD + "],[" + _GOOD],
                                f"{{file}}:1: invalid JSON at line 1 column {len(_GOOD) + 1}: "
                                "Extra data"),
    "an_entry_split_over_two_lines": ([_GOOD[:_SPLIT + 1], _GOOD[_SPLIT + 1:]],
                                      f"{{file}}:1: invalid JSON at line 1 column {_SPLIT + 2}: "
                                      "Expecting property name enclosed in double quotes"),
}


@pytest.mark.parametrize("lines, message", LOAD_FAULTS.values(), ids=LOAD_FAULTS.keys())
def test_load_dataset_fault_texts(dataset, tmp_path, lines, message):
    """Each fault of an expressions file is a DatasetError naming its line,
    with the same text, and a well-formed line loads."""
    copy = tmp_path / "ds"
    shutil.copytree(dataset / "scenes", copy / "scenes")
    path = copy / "expressions.jsonl"
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    with pytest.raises(DatasetError) as raised:
        load_dataset(copy)
    assert str(raised.value) == message.format(file=path)


@pytest.mark.parametrize("kind, reason", [
    ("missing", "[Errno 2] No such file or directory: '{file}'"),
    ("directory", "[Errno 21] Is a directory: '{file}'"),
    ("not_utf8", "'utf-8' codec can't decode byte 0xff in position 14: invalid start byte"),
])
def test_an_unreadable_expressions_file_is_a_dataset_error(dataset, tmp_path, kind, reason):
    copy = tmp_path / "ds"
    shutil.copytree(dataset / "scenes", copy / "scenes")
    path = copy / "expressions.jsonl"
    if kind == "directory":
        path.mkdir()
    elif kind == "not_utf8":
        path.write_bytes(b'{"scene_id": "\xff"}\n')
    with pytest.raises(DatasetError) as raised:
        load_dataset(copy)
    assert str(raised.value) == f"cannot read {path}: {reason.format(file=path)}"


def test_two_scene_files_with_one_scene_id_are_a_dataset_error(dataset, tmp_path):
    """A second scene file with an earlier file's ``scene_id`` is refused,
    naming both files, instead of replacing that scene."""
    copy = tmp_path / "ds"
    shutil.copytree(dataset, copy)
    first = copy / "scenes" / "mini_prox.json"
    second = copy / "scenes" / "mini_prox_copy.json"
    shutil.copy(first, second)
    with pytest.raises(DatasetError) as raised:
        load_dataset(copy)
    assert str(raised.value) == f"{second}: scene_id 'mini_prox' is also that of {first}"


def test_a_good_line_loads_with_its_aliases(dataset, tmp_path):
    copy = tmp_path / "ds"
    shutil.copytree(dataset / "scenes", copy / "scenes")
    (copy / "expressions.jsonl").write_text("\n".join([
        _GOOD,
        _line(expression={"category": "chair", "relations": [
            {"relation": "Near", "objects": [{"category": "table"}], "negative": True},
            {"relation_name": "on the-floor"}]}),
        _line(utterance=None)]) + "\n", encoding="utf-8")
    _, entries = load_dataset(copy)
    assert [e.utterance for e in entries] == ["the chair near the table"] * 2 + [""]
    assert [(c.relation, c.negative, len(c.anchors)) for c in entries[1].expression.relations] \
        == [("near", True, 1), ("on_the_floor", False, 0)]
    assert entries[0].expression == entries[2].expression


PINNED_REPORTS = {  # by workers, which the report's config holds
    1: "2b55813dcd76270b6626011c17691e84e39f0480983c47628db07c99e151d757",
    3: "a55e866e0f76abd3f3290de4d4ac54e0b0eb08b32150d9a0b302c2baaef83bbb",
}


def _report_digest(report) -> str:
    """sha256 of a report's dict without its timings and dataset path."""
    data = report_to_dict(report)
    del data["config"]["dataset"], data["aggregates"]["mean_wall_ms"]
    del data["aggregates"]["feature_ms"]
    for record in data["records"]:
        del record["wall_ms"]
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode("utf-8")).hexdigest()


def test_bench_reports_are_pinned(registry, tmp_path):
    """Reports are part of the contract: records and aggregates on mini
    benchmark seeds 0-3, with one worker and with three, byte for byte. The
    seeds move the boxes but not the expressions or any report field."""
    digests = {}
    for seed in range(4):
        generate_mini_benchmark(tmp_path / str(seed), seed=seed)
        for workers in (1, 3):
            report = run_bench(tmp_path / str(seed), registry, workers=workers,
                               with_baseline=True)
            digests[seed, workers] = _report_digest(report)
    assert digests == {(seed, workers): PINNED_REPORTS[workers]
                       for seed in range(4) for workers in (1, 3)}
