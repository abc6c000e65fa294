"""Shared test utilities: scene generators, a straight-line scoring oracle,
and suite builders used by the optimizer tests."""

from __future__ import annotations

import copy
import math

import numpy as np

from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import COMMUTATIVE_SWAPS, EncoderDefinition
from sceneground.expression import (
    ALL_RELATIONS,
    RelationClause,
    SymbolicExpression,
    relation_arity,
)
from sceneground.mutation import _all_nodes, _node_at, _replace_at, _scale_constant
from sceneground.optimizer import TestCase, TestSuite
from sceneground.scene import Scene, precompute_geometry, scene_from_dict

from oracles import compute_builtin

LABELS = ("chair", "table", "lamp", "shelf", "box", "sofa", "desk", "plant")


def random_scene(rng: np.random.Generator, n: int, scene_id: str = "scene",
                 labels: tuple[str, ...] = LABELS, span: float = 8.0) -> Scene:
    objects = []
    for i in range(n):
        center = rng.uniform(0.0, span, 3)
        size = rng.uniform(0.2, 2.0, 3)
        objects.append({
            "id": i,
            "label": labels[int(rng.integers(len(labels)))],
            "bbox": [*center.tolist(), *size.tolist()],
        })
    return scene_from_dict({"scene_id": scene_id, "objects": objects})


def random_expression(rng: np.random.Generator, scene: Scene, depth: int = 2,
                      relations: tuple[str, ...] = ALL_RELATIONS) -> SymbolicExpression:
    """Random expression over the scene's labels with nesting up to ``depth``."""

    def sub(level: int) -> SymbolicExpression:
        category = scene.objects[int(rng.integers(len(scene)))].label
        clauses = []
        if level < depth:
            for _ in range(int(rng.integers(1, 3)) if level == 1 else int(rng.integers(0, 2))):
                name = relations[int(rng.integers(len(relations)))]
                anchors = tuple(sub(level + 1) for _ in range(relation_arity(name) - 1))
                clauses.append(RelationClause(
                    relation=name,
                    anchors=anchors,
                    negative=bool(rng.random() < 0.2),
                ))
        return SymbolicExpression(category=category, relations=tuple(clauses))

    return sub(1)


def brute_force_scores(scene: Scene, expr: SymbolicExpression) -> list[float]:
    """Independent executor: native feature arrays combined with plain Python
    loops (naive triple loop for the ternary contraction, scalar softmax)."""
    n = len(scene)
    geom = precompute_geometry(scene)
    feats: dict[str, np.ndarray] = {}

    def norm(text: str) -> str:
        return " ".join(text.casefold().split())

    def category_feature(category: str) -> list[float]:
        key = norm(category)
        z = [100.0 if norm(obj.label) == key else 0.0 for obj in scene.objects]
        m = max(z)
        e = [math.exp(v - m) for v in z]
        total = sum(e)
        return [v / total for v in e]

    def softmax(values: list[float]) -> list[float]:
        m = max(values)
        e = [math.exp(v - m) for v in values]
        total = sum(e)
        return [v / total for v in e]

    def run(node: SymbolicExpression) -> list[float]:
        score = category_feature(node.category)
        for clause in node.relations:
            if clause.relation not in feats:
                feats[clause.relation] = compute_builtin(clause.relation, scene, geom).data
            rel = feats[clause.relation]
            arity = relation_arity(clause.relation)
            if arity == 1:
                f = [float(rel[i]) for i in range(n)]
            elif arity == 2:
                a = run(clause.anchors[0])
                f = [sum(float(rel[i, j]) * a[j] for j in range(n)) for i in range(n)]
            else:
                a1 = run(clause.anchors[0])
                a2 = run(clause.anchors[1])
                f = [
                    sum(float(rel[i, j, k]) * a1[j] * a2[k]
                        for j in range(n) for k in range(n))
                    for i in range(n)
                ]
            f = softmax(f)
            if clause.negative:
                m = max(f)
                f = [m - v for v in f]
            score = [s * v for s, v in zip(score, f)]
        return score

    return run(expr)


def build_margin_suite(relation: str, rng: np.random.Generator, n_cases: int = 30,
                       margin: float = 1.3, scene_size: int = 8) -> TestSuite:
    """Suite whose orderings come from the builtin encoder, margin-filtered so
    the builtin passes every case with slack."""
    scenes: dict[str, Scene] = {}
    cases: list[TestCase] = []
    arity = relation_arity(relation)
    while len(cases) < n_cases:
        sid = f"s{len(scenes)}"
        scene = random_scene(rng, scene_size, sid)
        geom = precompute_geometry(scene)
        data = compute_builtin(relation, scene, geom).data
        added = 0
        for _ in range(40):
            picks = rng.integers(0, scene_size, 2 + (arity - 1))
            if len(set(picks.tolist())) < len(picks):
                continue
            t, d, *anchors = (int(v) for v in picks)
            if arity == 1:
                lhs, rhs = data[t], data[d]
            elif arity == 2:
                lhs, rhs = data[t, anchors[0]], data[d, anchors[0]]
            else:
                lhs, rhs = data[t, anchors[0], anchors[1]], data[d, anchors[0], anchors[1]]
            if lhs > margin * rhs and rhs > 0:
                cases.append(TestCase(
                    scene_id=sid, target=t, distractor=d,
                    anchor=anchors[0] if arity >= 2 else None,
                    anchor2=anchors[1] if arity == 3 else None,
                ))
                added += 1
                if added >= 5 or len(cases) >= n_cases:
                    break
        if added:
            scenes[sid] = scene
    return TestSuite(relation=relation, cases=tuple(cases), scenes=scenes)


def constant_perturbed(relation: str, seed: int, rounds: int = 1) -> EncoderDefinition:
    """Builtin with constants rescaled; a continuously repairable start."""
    rng = np.random.default_rng(seed + 9000)
    body = encoder_to_dsl(relation).body
    for _ in range(rounds):
        body = _scale_constant(body, _all_nodes(body), rng)
    return EncoderDefinition(relation=relation, body=body, metadata="perturbed-const")


def op_swapped(relation: str, seed: int) -> EncoderDefinition:
    """Builtin with one commutative operator flipped; a discrete defect."""
    base = encoder_to_dsl(relation)
    rng = np.random.default_rng(seed + 5000)
    swappable = [p for p, node in _all_nodes(base.body) if node.get("op") in ("add", "mul")]
    path = swappable[int(rng.integers(len(swappable)))]
    node = copy.deepcopy(_node_at(base.body, path))
    node["op"] = COMMUTATIVE_SWAPS[node["op"]]
    return EncoderDefinition(relation=relation, body=_replace_at(base.body, path, node),
                             metadata="perturbed-swap")
