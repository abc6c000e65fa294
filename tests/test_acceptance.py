"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion; every tolerance is asserted exactly as stated.
"""

import json
import time

import numpy as np
import pytest

from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import eval_encoder
from sceneground.executor import FeatureCache, execute, stable_softmax
from sceneground.expression import (
    ALL_RELATIONS,
    RelationClause,
    SymbolicExpression,
    parse_expression,
    relation_arity,
    serialize_expression,
)
from sceneground.llm import EndpointConfig, UsageLedger, parse_utterance_via_llm
from sceneground.minibench import generate_mini_benchmark
from sceneground.optimizer import (
    MutationSource,
    OptimizerConfig,
    TestCase,
    optimize_encoder,
    synthesize_error_message,
)
from sceneground.registry import EncoderRegistry
from sceneground.scene import scene_from_dict
from sceneground.stub_server import StubServer

from helpers import (
    brute_force_scores,
    build_margin_suite,
    constant_perturbed,
    random_scene,
)

REGISTRY = EncoderRegistry()


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def test_criterion_1_executor_oracle_equivalence():
    rng = np.random.default_rng(1001)
    started = time.perf_counter()
    worst = 0.0
    used_relations = set()
    for k in range(200):
        scene = random_scene(rng, int(rng.integers(2, 9)), f"s{k}")
        forced = ALL_RELATIONS[k % len(ALL_RELATIONS)]
        used_relations.add(forced)

        def leaf():
            return SymbolicExpression(
                category=scene.objects[int(rng.integers(len(scene)))].label)

        clauses = [RelationClause(
            relation=forced,
            anchors=tuple(leaf() for _ in range(relation_arity(forced) - 1)),
            negative=bool(rng.random() < 0.2),
        )]
        if rng.random() < 0.5:
            extra = ALL_RELATIONS[int(rng.integers(len(ALL_RELATIONS)))]
            clauses.append(RelationClause(
                relation=extra,
                anchors=tuple(leaf() for _ in range(relation_arity(extra) - 1)),
                negative=bool(rng.random() < 0.2),
            ))
        expr = SymbolicExpression(category=leaf().category, relations=tuple(clauses))
        score = execute(expr, scene, FeatureCache(scene, REGISTRY))
        oracle = brute_force_scores(scene, expr)
        worst = max(worst, float(np.max(np.abs(score.data - np.array(oracle)))))
        assert np.allclose(score.data, oracle, atol=1e-9, rtol=0.0)
    elapsed = time.perf_counter() - started
    assert used_relations == set(ALL_RELATIONS)
    assert elapsed < 10.0
    report("criterion 1 (executor oracle equivalence)",
           f"200 scenes, max |diff| {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_relation_constraints():
    rng = np.random.default_rng(1002)
    violations = 0
    for k in range(100):
        scene = random_scene(rng, int(rng.integers(2, 10)), f"s{k}")
        from sceneground.scene import precompute_geometry

        geom = precompute_geometry(scene)
        n = len(scene)
        idx = np.arange(n)
        features = {name: eval_encoder(encoder_to_dsl(name), scene, geom).data
                    for name in ALL_RELATIONS}
        for name in ("near", "far"):
            if not np.array_equal(features[name], features[name].T):
                violations += 1
        for name in ("left", "right"):
            data = features[name]
            if np.any((data > 0) & (data.T > 0)):
                violations += 1
        if not np.array_equal(features["below"], features["above"].T):
            violations += 1
        for name, data in features.items():
            if not np.isfinite(data).all() or np.any(data < 0):
                violations += 1
            rank = relation_arity(name)
            if rank == 2 and np.any(np.diag(data) != 0.0):
                violations += 1
            if rank == 3 and (np.any(data[idx, idx, :] != 0.0)
                              or np.any(data[idx, :, idx] != 0.0)
                              or np.any(data[:, idx, idx] != 0.0)):
                violations += 1
    assert violations == 0
    report("criterion 2 (relation constraints)", "100 scenes, zero violations")


def test_criterion_3_category_feature_normalization():
    rng = np.random.default_rng(1003)
    for _ in range(1000):
        n = int(rng.integers(1, 16))
        sim = rng.uniform(-1.0, 1.0, n)
        data = stable_softmax(100.0 * sim)
        assert abs(float(data.sum()) - 1.0) <= 1e-9
        assert int(np.argmax(data)) == int(np.argmax(sim))
    report("criterion 3 (category normalization)",
           "1000 random sim vectors, sums within 1e-9, argmax preserved")


def test_criterion_4_optimizer_behavior():
    started = time.perf_counter()
    reached = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        suite = build_margin_suite("near", rng)
        source = MutationSource(skeleton=constant_perturbed("near", seed))
        log: list[dict] = []
        _, history = optimize_encoder(
            "near", suite, source, EncoderRegistry(),
            OptimizerConfig(n_iter=5, n_sample=5, top_k=3, seed=seed), log=log)
        assert history == sorted(history), f"seed {seed}: history decreased"
        assert len(log) <= 5 + 4 * 3 * 5
        if history[-1] == 1.0:
            reached += 1
    elapsed = time.perf_counter() - started
    assert reached >= 9
    assert elapsed < 60.0
    report("criterion 4 (optimizer behavior)",
           f"{reached}/10 seeds reached pass rate 1.0, {elapsed:.2f}s")


BOX_T = "[1.500000, 2.000000, 0.500000, 1.000000, 1.000000, 1.000000]"
BOX_A = "[1.500000, 2.000000, 1.500000, 1.000000, 1.000000, 1.000000]"
BOX_D = "[4.250000, 2.000000, 0.500000, 0.500000, 0.500000, 0.500000]"
BOX_E = "[0.250000, 7.750000, 0.333333, 0.500000, 0.500000, 0.666667]"


def _binary_golden(relation: str) -> str:
    spoken = relation.replace("_", " ")
    return (f'{BOX_T} is {spoken} {BOX_A} So feature value of {BOX_T} "{relation}" '
            f'{BOX_A} should be larger than the feature value of {BOX_D} '
            f'"{relation}" {BOX_A}.')


def _unary_golden(relation: str) -> str:
    spoken = relation.replace("_", " ")
    return (f"{BOX_T} is {spoken} So feature value of {BOX_T} should be larger "
            f"than the feature value of {BOX_D}.")


def _ternary_golden(relation: str) -> str:
    anchors = f"{BOX_A} and {BOX_E}"
    return (f'{BOX_T} is {relation} {anchors} So feature value of {BOX_T} '
            f'"{relation}" {anchors} should be larger than the feature value of '
            f'{BOX_D} "{relation}" {anchors}.')


def test_criterion_5_error_message_goldens():
    scene = scene_from_dict({"scene_id": "g", "objects": [
        {"id": 0, "label": "t", "bbox": [1.5, 2.0, 0.5, 1.0, 1.0, 1.0]},
        {"id": 1, "label": "a", "bbox": [1.5, 2.0, 1.5, 1.0, 1.0, 1.0]},
        {"id": 2, "label": "d", "bbox": [4.25, 2.0, 0.5, 0.5, 0.5, 0.5]},
        {"id": 3, "label": "e", "bbox": [0.25, 7.75, 1.0 / 3.0, 0.5, 0.5, 2.0 / 3.0]},
    ]})
    binary_case = TestCase(scene_id="g", target=0, distractor=2, anchor=1)
    unary_case = TestCase(scene_id="g", target=0, distractor=2)
    ternary_case = TestCase(scene_id="g", target=0, distractor=2, anchor=1, anchor2=3)
    goldens = [
        (binary_case, "above", _binary_golden("above")),
        (binary_case, "near", _binary_golden("near")),
        (binary_case, "far", _binary_golden("far")),
        (binary_case, "left", _binary_golden("left")),
        (binary_case, "behind", _binary_golden("behind")),
        (unary_case, "large", _unary_golden("large")),
        (unary_case, "small", _unary_golden("small")),
        (unary_case, "on_the_floor", _unary_golden("on_the_floor")),
        (unary_case, "at_the_corner", _unary_golden("at_the_corner")),
        (ternary_case, "between", _ternary_golden("between")),
    ]
    assert len(goldens) == 10
    for case, relation, expected in goldens:
        rendered = synthesize_error_message(case, scene, relation)
        assert rendered == expected, f"golden mismatch for {relation}"
        assert "should be larger than the feature value" in rendered
    report("criterion 5 (error-message goldens)", "10 frozen cases byte-identical")


def test_criterion_6_expression_roundtrip():
    rng = np.random.default_rng(1006)

    def random_tree(depth: int) -> SymbolicExpression:
        clauses = []
        if depth > 1:
            for _ in range(int(rng.integers(0, 3))):
                name = ALL_RELATIONS[int(rng.integers(len(ALL_RELATIONS)))]
                anchors = tuple(random_tree(depth - 1)
                                for _ in range(relation_arity(name) - 1))
                clauses.append(RelationClause(relation=name, anchors=anchors,
                                              negative=bool(rng.random() < 0.3)))
        return SymbolicExpression(category=f"cat{int(rng.integers(50))}",
                                  relations=tuple(clauses))

    for _ in range(1000):
        tree = random_tree(int(rng.integers(1, 5)))
        assert parse_expression(serialize_expression(tree)) == tree

    documented = parse_expression(
        '{"category": "chair", "relations":'
        ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}')
    assert documented.category == "chair"
    assert documented.relations[0].relation == "near"
    assert documented.relations[0].negative is False
    assert documented.relations[0].anchors[0].category == "table"
    report("criterion 6 (expression round-trip)",
           "1000 random trees round-trip; documented example parses")


def test_criterion_7_mini_benchmark(tmp_path):
    from sceneground.bench import run_bench

    started = time.perf_counter()
    generate_mini_benchmark(tmp_path, seed=7)
    report_obj = run_bench(tmp_path, REGISTRY, with_baseline=True)
    elapsed = time.perf_counter() - started
    accuracy = report_obj.aggregates["accuracy"]
    baseline = report_obj.aggregates["random_baseline"]
    assert accuracy >= 0.90
    assert baseline <= 0.30
    assert elapsed < 30.0
    report("criterion 7 (mini-benchmark)",
           f"accuracy {accuracy:.3f} >= 0.90, baseline {baseline:.3f} <= 0.30, "
           f"{elapsed:.2f}s, offline")


def test_criterion_8_hermetic_llm_path(tmp_path):
    reply = ('{"category": "chair", "relations":'
             ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}')
    ledger = UsageLedger()
    with StubServer([reply]) as stub:
        config = EndpointConfig(endpoint=stub.base_url, api_key="k", model="stub",
                                backoff=0.01)
        expr = parse_utterance_via_llm("the chair near the table", config, ledger)
        assert expr == parse_expression(reply)
        assert stub.request_count == 1
        assert len(ledger.records) == 1
        assert ledger.totals()["calls"] == 1

        # offline mode: the CLI parse path must not touch the endpoint
        from sceneground.cli import main

        src = tmp_path / "expr.json"
        src.write_text(reply, encoding="utf-8")
        out = tmp_path / "canonical.json"
        assert main(["parse", "--offline-expr", str(src), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["category"] == "chair"
        assert stub.request_count == 1  # unchanged: zero network calls offline
    report("criterion 8 (hermetic LLM path)",
           "stub parse ok, ledger exact, offline made zero calls")


def test_criterion_9_permutation_translation_invariance():
    rng = np.random.default_rng(1009)
    shift = np.array([11.0, -6.5, 2.25])
    from sceneground.scene import precompute_geometry

    for k in range(50):
        n = int(rng.integers(2, 9))
        scene = random_scene(rng, n, f"s{k}")

        # permutation: scores permute identically, winner unchanged
        perm = rng.permutation(n)
        permuted = scene_from_dict({
            "scene_id": scene.scene_id,
            "objects": [
                {"id": scene.objects[p].id, "label": scene.objects[p].label,
                 "bbox": [*scene.objects[p].bbox.center, *scene.objects[p].bbox.size]}
                for p in perm
            ],
        })
        anchor = SymbolicExpression(category=scene.objects[int(rng.integers(n))].label)
        expr = SymbolicExpression(
            category=scene.objects[int(rng.integers(n))].label,
            relations=(RelationClause(relation="near", anchors=(anchor,)),),
        )
        score = execute(expr, scene, FeatureCache(scene, REGISTRY))
        score_p = execute(expr, permuted, FeatureCache(permuted, REGISTRY))
        assert np.allclose(score_p.data, score.data[perm], atol=1e-9, rtol=0.0)
        if np.sum(score.data == score.data.max()) == 1:
            assert score_p.argmax_id() == score.argmax_id()

        # translation: every builtin feature unchanged within 1e-9
        moved = scene_from_dict({
            "scene_id": scene.scene_id,
            "objects": [
                {"id": o.id, "label": o.label,
                 "bbox": [*(np.array(o.bbox.center) + shift).tolist(), *o.bbox.size]}
                for o in scene.objects
            ],
        })
        geom = precompute_geometry(scene)
        geom_moved = precompute_geometry(moved)
        for name in ALL_RELATIONS:
            a = eval_encoder(encoder_to_dsl(name), scene, geom).data
            b = eval_encoder(encoder_to_dsl(name), moved, geom_moved).data
            assert np.allclose(a, b, atol=1e-9, rtol=0.0), name
    report("criterion 9 (permutation/translation invariance)",
           "50 scenes, all relations within 1e-9")
