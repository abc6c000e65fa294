"""Reference paths kept as oracles for the fast ones.

``tree_walk_eval`` is the recursive evaluator the DAG compiler replaced: it
walks every node of the tree, repeats included, and broadcasts accessors over
full axes. ``dense_run_test_suite`` is the suite scorer that evaluates the
whole N^arity feature per scene and reads two entries per case.
"""

from __future__ import annotations

import numpy as np

from sceneground.dsl import (
    DefinitionError,
    EncoderDefinition,
    RelationFeature,
    _agg_value,
    _get_values,
    finalize_feature,
    guarded_div,
    guarded_exp,
    guarded_sqrt,
    validate_definition,
)
from sceneground.expression import relation_arity
from sceneground.optimizer import (
    CandidateReport,
    SuiteError,
    TestCase,
    TestSuite,
    synthesize_error_message,
)
from sceneground.scene import PairGeometry, Scene


def _broadcast_obj(values: np.ndarray, which: str, rank: int, i_slice: slice | None):
    if rank == 1:
        return values if i_slice is None else values[i_slice]
    if rank == 2:
        return values[:, None] if which == "i" else values[None, :]
    if which == "i":
        sliced = values if i_slice is None else values[i_slice]
        return sliced[:, None, None]
    if which == "j":
        return values[None, :, None]
    return values[None, None, :]


def _eval_node(node: dict, geom: PairGeometry, rank: int, i_slice: slice | None):
    if "const" in node:
        return float(node["const"])
    if "get" in node:
        values = _get_values(node["get"], geom, node.get("axis"))
        return _broadcast_obj(values, node["obj"], rank, i_slice)
    if "agg" in node:
        return _agg_value(node["agg"], geom, node.get("axis"))
    name = node["op"]
    args = [_eval_node(child, geom, rank, i_slice) for child in node["args"]]
    if name == "add":
        return args[0] + args[1]
    if name == "sub":
        return args[0] - args[1]
    if name == "mul":
        return args[0] * args[1]
    if name == "div":
        return guarded_div(args[0], args[1])
    if name == "min":
        return np.minimum(args[0], args[1])
    if name == "max":
        return np.maximum(args[0], args[1])
    if name == "abs":
        return np.abs(args[0])
    if name == "neg":
        return -args[0]
    if name == "exp":
        return guarded_exp(args[0])
    if name == "sqrt":
        return guarded_sqrt(args[0])
    if name == "relu":
        return np.maximum(args[0], 0.0)
    if name == "clamp01":
        return np.clip(args[0], 0.0, 1.0)
    if name == "dot2":
        return args[0] * args[2] + args[1] * args[3]
    return args[0] * args[3] - args[1] * args[2]  # cross2


def tree_walk_eval(defn: EncoderDefinition, scene: Scene, geom: PairGeometry,
                   chunk_elems: int = 1 << 18) -> RelationFeature:
    n = len(scene)
    rank = relation_arity(defn.relation)
    if rank < 3:
        data = finalize_feature(_eval_node(defn.body, geom, rank, None), rank, n)
    else:
        out = np.empty((n, n, n), dtype=np.float64)
        step = max(1, chunk_elems // max(1, n * n))
        for start in range(0, n, step):
            sl = slice(start, min(start + step, n))
            out[sl] = _eval_node(defn.body, geom, rank, sl)
        data = finalize_feature(out, rank, n)
    return RelationFeature(relation=defn.relation, rank=rank, data=data)


def _case_passes(feature: RelationFeature, scene: Scene, case: TestCase) -> bool:
    index = scene.index_of
    t = index[case.target]
    d = index[case.distractor]
    if feature.rank == 1:
        return bool(feature.data[t] > feature.data[d])
    a = index[case.anchor]
    if feature.rank == 2:
        return bool(feature.data[t, a] > feature.data[d, a])
    a2 = index[case.anchor2]
    return bool(feature.data[t, a, a2] > feature.data[d, a, a2])


def dense_run_test_suite(defn: EncoderDefinition, suite: TestSuite,
                         memo: dict | None = None) -> CandidateReport:
    """Score every case from the dense feature; ``memo`` is accepted and ignored."""
    if defn.relation != suite.relation:
        raise SuiteError(f"definition is for {defn.relation!r}, suite is for {suite.relation!r}")
    try:
        validate_definition(defn)
    except DefinitionError as exc:
        return CandidateReport(definition=defn, pass_rate=0.0, failures=(),
                               note=f"validation failed: {exc}")
    features: dict[str, RelationFeature] = {}
    passed = 0
    failures = []
    for case in suite.cases:
        scene = suite.scenes[case.scene_id]
        if case.scene_id not in features:
            features[case.scene_id] = tree_walk_eval(defn, scene, suite.geometry(case.scene_id))
        if _case_passes(features[case.scene_id], scene, case):
            passed += 1
        else:
            failures.append((case, synthesize_error_message(case, scene, suite.relation)))
    return CandidateReport(definition=defn, pass_rate=passed / len(suite.cases),
                           failures=tuple(failures))
