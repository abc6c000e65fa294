import json
import logging
import math
import sys
import threading
import time

import numpy as np
import pytest

from sceneground.executor import (
    ExecutionError,
    FeatureCache,
    MatchingScore,
    condition_level_eval,
    condition_precision_recall,
    execute,
    grounding_result,
    rank_candidates,
    stable_softmax,
)
from sceneground.expression import (
    ALL_RELATIONS,
    RelationClause,
    SymbolicExpression,
    parse_expression,
)
from sceneground.registry import EncoderRegistry
from sceneground.scene import scene_from_dict

from helpers import brute_force_scores, random_expression, random_scene
from oracles import (
    compute_category_feature,
    prefix_scores,
    reference_condition_level,
    single_clause_predictions,
)


@pytest.fixture(scope="module")
def registry():
    return EncoderRegistry()


def three_object_scene():
    return scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "chair", "bbox": [10, 0, 0, 1, 1, 1]},
        {"id": 2, "label": "table", "bbox": [1, 0, 0, 1, 1, 1]},
    ]})


def test_category_feature_uniform():
    scene = three_object_scene()
    feature = compute_category_feature(scene, np.array([0.5, 0.5, 0.5]))
    assert np.allclose(feature.data, 1.0 / 3.0, atol=1e-12)
    assert feature.data.sum() == pytest.approx(1.0, abs=1e-9)


def test_category_feature_sharp():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [2, 0, 0, 1, 1, 1]},
    ]})
    feature = compute_category_feature(scene, np.array([1.0, 0.0]))
    assert feature.data[1] == pytest.approx(math.exp(-100.0), rel=1e-9)
    assert feature.data[0] == pytest.approx(1.0, abs=1e-12)
    assert feature.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_category_feature_two_class_logistic():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [2, 0, 0, 1, 1, 1]},
    ]})
    feature = compute_category_feature(scene, np.array([0.6, 0.55]))
    assert feature.data[0] == pytest.approx(1.0 / (1.0 + math.exp(-5.0)), rel=1e-12)


def test_category_normalization_random_vectors():
    rng = np.random.default_rng(99)
    for _ in range(200):
        n = int(rng.integers(1, 12))
        sim = rng.uniform(-1.0, 1.0, n)
        data = stable_softmax(100.0 * sim)
        assert abs(data.sum() - 1.0) <= 1e-9
        assert int(np.argmax(data)) == int(np.argmax(sim))
        assert (data > 0).all()


def test_no_relations_returns_category_feature(registry):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    score = execute(parse_expression('{"category": "table"}'), scene, cache)
    expected = cache.category_feature("table").data
    assert np.array_equal(score.data, expected)


def test_chair_near_table_argmax(registry):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    expr = parse_expression(
        '{"category": "chair", "relations":'
        ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}')
    score = execute(expr, scene, cache)
    assert score.argmax_id() == 0
    oracle = brute_force_scores(scene, expr)
    assert np.allclose(score.data, oracle, atol=1e-9, rtol=0.0)


def test_negated_clause_flips_winner(registry):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    expr = SymbolicExpression(category="chair", relations=(
        RelationClause(relation="near",
                       anchors=(SymbolicExpression(category="table"),),
                       negative=True),
    ))
    score = execute(expr, scene, cache)
    assert score.argmax_id() == 1
    oracle = brute_force_scores(scene, expr)
    assert np.allclose(score.data, oracle, atol=1e-9, rtol=0.0)


def test_oracle_equivalence_random(registry):
    rng = np.random.default_rng(4242)
    for k in range(40):
        scene = random_scene(rng, int(rng.integers(2, 9)), f"s{k}")
        cache = FeatureCache(scene, registry)
        expr = random_expression(rng, scene)
        score = execute(expr, scene, cache)
        oracle = brute_force_scores(scene, expr)
        assert np.allclose(score.data, oracle, atol=1e-9, rtol=0.0)


def test_cache_scene_mismatch_rejected(registry):
    rng = np.random.default_rng(1)
    scene_a = random_scene(rng, 4, "a")
    scene_b = random_scene(rng, 4, "b")
    cache = FeatureCache(scene_a, registry)
    with pytest.raises(ExecutionError, match="different scene"):
        execute(parse_expression('{"category": "chair"}'), scene_b, cache)


def test_cache_hashes_its_scene_only_for_another_scene_object(registry, monkeypatch):
    from sceneground.scene import Scene

    hashed = []
    real_fingerprint = Scene.fingerprint
    monkeypatch.setattr(Scene, "fingerprint",
                        lambda self: hashed.append(self) or real_fingerprint(self))
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    expr = parse_expression('{"category": "chair"}')
    score = execute(expr, scene, cache)
    assert hashed == []
    twin = three_object_scene()  # equal content, another object
    assert execute(expr, twin, cache).data.tobytes() == score.data.tobytes()
    assert twin in hashed and any(s is scene for s in hashed)


def test_unknown_category_warns_and_goes_uniform(registry, caplog):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    with caplog.at_level(logging.WARNING):
        score = execute(parse_expression('{"category": "zeppelin"}'), scene, cache)
    assert "zeppelin" in caplog.text
    assert np.allclose(score.data, 1.0 / 3.0, atol=1e-12)


def test_rank_candidates_threshold_rule():
    score = MatchingScore(data=np.array([0.9, 0.1, 0.05]), object_ids=(7, 8, 9))
    assert rank_candidates(score, top_k=5, threshold=0.9) == [7]


def test_rank_candidates_uniform_keeps_all():
    score = MatchingScore(data=np.array([0.2, 0.2, 0.2]), object_ids=(1, 2, 3))
    assert rank_candidates(score, top_k=5, threshold=0.9) == [1, 2, 3]


def test_rank_candidates_top1():
    score = MatchingScore(data=np.array([0.1, 0.9, 0.5]), object_ids=(1, 2, 3))
    assert rank_candidates(score, top_k=1, threshold=0.0) == [2]


def test_rank_ties_break_by_scene_position():
    score = MatchingScore(data=np.array([0.5, 0.9, 0.9]), object_ids=(4, 5, 6))
    assert rank_candidates(score, top_k=2, threshold=0.5) == [5, 6]


def test_grounding_result_format(registry):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    expr = parse_expression('{"category": "chair"}')
    result = grounding_result(scene, expr, execute(expr, scene, cache))
    assert set(result) == {"scene_id", "expression", "scores", "candidates", "argmax"}
    scores = [entry["score"] for entry in result["scores"]]
    assert scores == sorted(scores, reverse=True)
    assert result["argmax"] == result["scores"][0]["id"]


def test_monotone_conjunction(registry):
    rng = np.random.default_rng(77)
    for k in range(20):
        scene = random_scene(rng, 6, f"s{k}")
        cache = FeatureCache(scene, registry)
        category = scene.objects[0].label
        anchor = SymbolicExpression(category=scene.objects[1].label)
        base = SymbolicExpression(category=category)
        grown = base
        last_max = float(execute(base, scene, cache).data.max())
        for relation in ("near", "above", "left"):
            grown = SymbolicExpression(
                category=category,
                relations=grown.relations + (
                    RelationClause(relation=relation, anchors=(anchor,)),),
            )
            current = float(execute(grown, scene, cache).data.max())
            assert current <= last_max + 1e-12
            last_max = current


def test_permutation_equivariance_of_scores(registry):
    rng = np.random.default_rng(88)
    for k in range(10):
        n = int(rng.integers(2, 8))
        scene = random_scene(rng, n, f"s{k}")
        perm = rng.permutation(n)
        permuted = scene_from_dict({
            "scene_id": scene.scene_id,
            "objects": [
                {"id": scene.objects[p].id, "label": scene.objects[p].label,
                 "bbox": [*scene.objects[p].bbox.center, *scene.objects[p].bbox.size]}
                for p in perm
            ],
        })
        expr = random_expression(rng, scene)
        score = execute(expr, scene, FeatureCache(scene, registry))
        score_p = execute(expr, permuted, FeatureCache(permuted, registry))
        assert np.allclose(score_p.data, score.data[perm], atol=1e-9, rtol=0.0)
        if np.sum(score.data == score.data.max()) == 1:
            # the winner id is only well-defined when the max is unique;
            # exact ties fall back to scene order, which permutation changes
            assert score_p.argmax_id() == score.argmax_id()
        else:
            tied = {score.object_ids[int(i)]
                    for i in np.flatnonzero(score.data == score.data.max())}
            assert score_p.argmax_id() in tied


def test_single_flight_feature_computation(registry, monkeypatch):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    calls = []
    import sceneground.executor as executor_module

    original = executor_module.eval_encoders

    def counting_eval(defns, *args, **kwargs):
        calls.append(len(defns))
        return original(defns, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", counting_eval)
    threads = [threading.Thread(target=lambda: cache.relation_feature("near"))
               for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert sum(calls) == 1


def test_cached_lookup_does_not_wait_for_another_computation(registry, monkeypatch):
    scene = three_object_scene()
    cache = FeatureCache(scene, registry)
    cache.relation_feature("near")
    import sceneground.executor as executor_module

    original = executor_module.eval_encoders
    started, release = threading.Event(), threading.Event()

    def held_eval(defns, *args, **kwargs):
        if any(defn.relation == "between" for defn in defns):
            started.set()
            release.wait(timeout=30)
        return original(defns, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", held_eval)
    slow = threading.Thread(target=lambda: cache.relation_feature("between"))
    slow.start()
    try:
        assert started.wait(timeout=10)
        looked_up = []
        fast = threading.Thread(target=lambda: looked_up.append(cache.relation_feature("near")))
        fast.start()
        fast.join(timeout=5)
        assert looked_up, "lookup of a cached feature waited on another computation"
    finally:
        release.set()
        slow.join(timeout=30)
    assert not slow.is_alive()
    assert cache.relation_feature("between").data.shape == (3, 3, 3)


def test_feature_cache_stress_one_computation_per_feature(registry, monkeypatch):
    scene = random_scene(np.random.default_rng(4), 6, "s")
    cache = FeatureCache(scene, registry)
    import sceneground.executor as executor_module

    original = executor_module.eval_encoders
    calls = []

    def counting_eval(defns, *args, **kwargs):
        calls.extend(defn.relation for defn in defns)
        return original(defns, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", counting_eval)
    seen: list[dict] = []

    def worker(seed):
        rng = np.random.default_rng(seed)
        order = [ALL_RELATIONS[k] for k in rng.permutation(len(ALL_RELATIONS))]
        got = {}
        # even workers ask one relation at a time, odd ones for groups of up to four
        while order:
            size = 1 if seed % 2 == 0 else int(rng.integers(1, 5))
            if size == 1:
                got[order[0]] = cache.relation_feature(order[0])
            else:
                got.update(cache.relation_features(order[:size]))
            order = order[size:]
        for label in scene.labels:
            got[label] = cache.category_feature(label)
        seen.append(got)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(12)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(t.is_alive() for t in threads)
    assert sorted(calls) == sorted(ALL_RELATIONS)
    assert len(seen) == 12
    for got in seen[1:]:
        assert all(got[key] is seen[0][key] for key in seen[0])


@pytest.mark.parametrize("requests", [
    (["near", "far"], ["far", "left"]),
    (["near", "far"], ["far", "left"], ["left", "near"]),  # requests that overlap in a cycle
])
def test_overlapping_requests_evaluate_each_relation_once(registry, monkeypatch, requests):
    import sceneground.executor as executor_module

    original = executor_module.eval_encoders
    calls = []

    def slow_eval(defns, *args, **kwargs):
        calls.extend(defn.relation for defn in defns)
        time.sleep(0.02)  # holds the lock while the other requests arrive
        return original(defns, *args, **kwargs)

    monkeypatch.setattr(executor_module, "eval_encoders", slow_eval)
    for seed in range(3):
        calls.clear()
        cache = FeatureCache(random_scene(np.random.default_rng(seed), 5, "s"), registry)
        barrier = threading.Barrier(len(requests))
        got = [None] * len(requests)

        def request(k):
            barrier.wait(timeout=10)
            got[k] = cache.relation_features(requests[k])

        threads = [threading.Thread(target=request, args=(k,), daemon=True)
                   for k in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads), "overlapping requests deadlocked"
        assert sorted(calls) == sorted({r for names in requests for r in names})
        for names, features in zip(requests, got):
            assert sorted(features) == sorted(names)
            assert all(features[r] is cache.relation_feature(r) for r in names)


def _clauses_of(expr):
    stack, clauses = [expr], []
    while stack:
        node = stack.pop()
        clauses.extend(node.relations)
        stack.extend(a for c in node.relations for a in c.anchors)
    return clauses


def test_terms_fold_matches_prefix_and_single_clause_executions(registry):
    """One execution's terms give the clause-prefix scores bit for bit and
    each root clause's single-condition argmax, as separate executions of
    the prefixes and clauses do; so does the condition-level evaluation."""
    rng = np.random.default_rng(23)
    scenes, caches, entries = {}, {}, []
    for k in range(6):
        scene = random_scene(rng, int(rng.integers(4, 10)), f"s{k}")
        scenes[scene.scene_id] = scene
        caches[scene.scene_id] = FeatureCache(scene, registry)
        for _ in range(8):
            # two to six root clauses: the roots of three random expressions
            parts = [random_expression(rng, scene, depth=3) for _ in range(3)]
            expr = SymbolicExpression(category=parts[0].category,
                                      relations=sum((p.relations for p in parts), ()))
            entries.append((scene.scene_id, expr, int(rng.choice(scene.ids))))
    exprs = [expr for _, expr, _ in entries]
    assert min(len(e.relations) for e in exprs) >= 2
    assert any(c.negative for e in exprs for c in e.relations)
    assert any(a.relations for e in exprs for c in e.relations for a in c.anchors)
    assert {len(c.anchors) for e in exprs for c in _clauses_of(e)} == {0, 1, 2}

    for scene_id, expr, _ in entries:
        scene, cache = scenes[scene_id], caches[scene_id]
        score = execute(expr, scene, cache)
        assert len(score.terms) == len(expr.relations) + 1
        running = [score.terms[0]]
        for factor in score.terms[1:]:
            running.append(running[-1] * factor)
        expected = prefix_scores(expr, scene, cache)
        assert [r.tobytes() for r in running] == [e.tobytes() for e in expected]
        assert score.data.tobytes() == expected[-1].tobytes()
        predicted = [MatchingScore(data=score.terms[0] * f, object_ids=score.object_ids)
                     .argmax_id() for f in score.terms[1:]]
        assert predicted == single_clause_predictions(expr, scene, cache)
    assert condition_level_eval(entries, scenes, registry) == \
        reference_condition_level(entries, scenes, caches)


def test_condition_level_perfect_case(registry):
    scene = three_object_scene()
    expr = parse_expression(
        '{"category": "chair", "relations":'
        ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}')
    precision, recall = condition_level_eval(
        [("s", expr, 0)], {"s": scene}, registry)
    assert precision == 1.0 and recall == 1.0


def test_condition_level_empty_warns(registry, caplog):
    scene = three_object_scene()
    expr = parse_expression('{"category": "chair"}')
    with caplog.at_level(logging.WARNING):
        precision, recall = condition_level_eval([("s", expr, 0)], {"s": scene}, registry)
    assert (precision, recall) == (1.0, 1.0)
    assert "no conditions" in caplog.text


def test_condition_groups_compare_categories_as_matching_does():
    """``"chair "`` selects the objects ``"chair"`` does, so its entries join
    the ``"chair"`` group: predictions {1, 2} against truths {1, 2, 3}."""
    ids = (1, 2, 3)

    def entry(category, ground_truth, predicted):
        expr = parse_expression(json.dumps({"category": category,
                                            "relations": [{"relation_name": "large"}]}))
        pick = np.array([oid == predicted for oid in ids], dtype=np.float64)
        score = MatchingScore(data=pick, object_ids=ids, terms=(np.ones(3), pick))
        return "s", expr, ground_truth, score

    precision, recall = condition_precision_recall(
        [entry("chair", 1, 1), entry("chair", 2, 2), entry("chair ", 3, 1)])
    assert precision == 1.0 and recall == pytest.approx(2 / 3)


def test_condition_level_unknown_ground_truth(registry):
    scene = three_object_scene()
    expr = parse_expression('{"category": "chair"}')
    with pytest.raises(ExecutionError, match="ground-truth"):
        condition_level_eval([("s", expr, 99)], {"s": scene}, registry)


def test_condition_level_counts_misses(registry):
    scene = three_object_scene()
    expr = parse_expression(
        '{"category": "chair", "relations":'
        ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}')
    # intentionally wrong ground truth: the far chair
    precision, recall = condition_level_eval([("s", expr, 1)], {"s": scene}, registry)
    assert precision == 0.0 and recall == 0.0


def _exact_match(scene, category):
    key = " ".join(category.casefold().split())
    return np.array([" ".join(label.casefold().split()) == key for label in scene.labels],
                    dtype=np.float64)


def test_category_pass_matches_per_category_features(registry, caplog):
    rng = np.random.default_rng(21)
    labels = ("chair", "table", "lamp", "sofa")
    categories = ["seat", " LIGHT ", "chair", "Table", "zeppelin"]
    for n in (1, 2, 5, 40, 300):
        for binary in (True, False):
            values = ((rng.random((n, 2)) < 0.3).astype(np.float64) if binary
                      else rng.uniform(-1.0, 1.0, (n, 2)))
            scene = scene_from_dict({
                "scene_id": f"s{n}",
                "objects": [{"id": k, "label": labels[int(rng.integers(len(labels)))],
                             "bbox": [*rng.uniform(0.0, 8.0, 3).tolist(),
                                      *rng.uniform(0.2, 2.0, 3).tolist()]} for k in range(n)],
                "similarities": {"categories": ["Seat", "light"], "values": values.tolist()},
            })
            caplog.clear()
            with caplog.at_level(logging.WARNING):
                batch = FeatureCache(scene, registry).category_features(categories)
            unmatched = []
            for category in categories:
                column = scene.similarities.column(category)
                if column is None:
                    column = _exact_match(scene, category)
                if not np.any(column):
                    unmatched.append(category)
                reference = compute_category_feature(scene, column, category)
                assert batch[category].category == category
                assert batch[category].data.tobytes() == reference.data.tobytes()
                assert not batch[category].data.flags.writeable
            assert sorted(r.args[0] for r in caplog.records) == sorted(unmatched)
            assert "zeppelin" in unmatched


def test_overlapping_category_requests_compute_each_category_once(registry, monkeypatch):
    import sceneground.executor as executor_module

    original = executor_module.exact_match_rows
    calls = []

    def slow_rows(scene, categories):
        calls.extend(categories)
        time.sleep(0.02)  # holds the locks while the other request arrives
        return original(scene, categories)

    monkeypatch.setattr(executor_module, "exact_match_rows", slow_rows)
    requests = (["chair", "table", "lamp"], ["lamp", "sofa", "chair"])
    for seed in range(3):
        calls.clear()
        cache = FeatureCache(random_scene(np.random.default_rng(seed), 6, "s"), registry)
        barrier = threading.Barrier(len(requests))
        got = [None] * len(requests)

        def request(k):
            barrier.wait(timeout=10)
            got[k] = cache.category_features(requests[k])

        threads = [threading.Thread(target=request, args=(k,), daemon=True)
                   for k in range(len(requests))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in threads)
        assert sorted(calls) == sorted({c for names in requests for c in names})
        for names, features in zip(requests, got):
            assert sorted(features) == sorted(names)
            assert all(features[c] is cache.category_feature(c) for c in names)


def test_argmax_id_is_the_first_of_tied_maxima():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = int(rng.integers(1, 12))
        data = rng.choice([0.0, -0.0, 0.5, 1.0, 1.0], n)
        score = MatchingScore(data=data, object_ids=tuple(int(i) for i in rng.permutation(50)[:n]))
        assert score.argmax_id() == score.object_ids[int(score.order()[0])]
