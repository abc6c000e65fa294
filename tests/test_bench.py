import csv
import gc
import json

import numpy as np
import pytest

import sceneground.bench as bench_module
import sceneground.executor as executor_module
from sceneground.bench import HEATMAP_RELATIONS, load_dataset, run_bench
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
    or without plot files. Only the pre-pass asks the feature caches, once
    for relations and once for categories per scene."""
    scenes, entries = load_dataset(dataset)
    executed = []
    real = executor_module.score_features

    def counting_score(expr, object_ids, categories, relations):
        executed.append(expr)
        return real(expr, object_ids, categories, relations)

    requests = []
    real_request = executor_module.FeatureCache._request

    def counting_request(cache, kind, names, compute):
        requests.append(kind)
        return real_request(cache, kind, names, compute)

    monkeypatch.setattr(executor_module, "score_features", counting_score)
    monkeypatch.setattr(bench_module, "score_features", counting_score)
    monkeypatch.setattr(executor_module.FeatureCache, "_request", counting_request)
    expected = [e.expression for e in entries]
    assert len(expected) == 40
    for kwargs in ({}, {"workers": 4, "plots_dir": tmp_path / "plots"}):
        executed.clear()
        requests.clear()
        run_bench(dataset, registry, **kwargs)
        assert sorted(map(repr, executed)) == sorted(map(repr, expected))
        assert sorted(requests) == ["category"] * len(scenes) + ["relation"] * len(scenes)


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
        got = score_features(entry.expression, scene.object_ids, *features[entry.scene_id])
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
