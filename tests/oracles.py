"""Reference paths kept as oracles for the fast ones.

``compute_builtin`` is the native route: each builtin relation written
directly in vectorized numpy over pair arrays, independent of the DSL trees
the library evaluates. It uses the same guarded arithmetic, so the two agree
within 1e-9 even on degenerate geometry. ``tree_walk_eval`` is the recursive
evaluator the DAG compiler replaced: it walks every node of the tree, repeats
included, and broadcasts accessors over full axes. ``reference_validate`` is
the separate validation walk that the DAG compiler's checks replaced.
``dense_run_test_suite`` is the suite scorer that evaluates the whole
N^arity feature per scene and reads two entries per case. ``all_nodes`` is
the list of every (path, node) that mutation used to build for its pick, and
``reference_canonical_json``/``reference_digest`` serialize the whole
definition with ``json.dumps``, as the digest did before it was joined from
memoized subtree texts. ``prefix_scores`` and ``single_clause_predictions``
execute every clause prefix, and every root clause alone with the category,
as their own expressions: the per-step plot rows and condition-level
predictions before both were read from one execution's terms;
``reference_condition_level`` is the condition-level evaluation built on
them. ``reference_sanitize`` is the ``nan_to_num`` form of the feature
sanitizer, and ``finalize_feature`` finishes one broadcast feature with the
library's finishing rule. ``compute_category_feature`` is the per-category
reference that the executor's one-softmax category pass must match.
``reference_scene_rows`` is the per-object scene loader: it checks each
object in turn, converts each bbox value with ``float`` and applies the
box, id and label rules in Python; ``reference_fingerprint`` and
``reference_geometry`` hash and measure those per-object rows.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

from sceneground.dsl import (
    FEATURE_CAP,
    MAX_TREE_DEPTH,
    MAX_TREE_NODES,
    OBJS_FOR_ARITY,
    DefinitionError,
    EncoderDefinition,
    RelationFeature,
    _agg_value,
    _fault,
    _finalize_owned,
    _get_values,
    guarded_div,
    guarded_exp,
    guarded_sqrt,
)
from sceneground.executor import (
    CATEGORY_SCALE,
    CategoryFeature,
    ExecutionError,
    FeatureCache,
    execute,
    stable_softmax,
)
from sceneground.expression import SymbolicExpression, relation_arity
from sceneground.optimizer import (
    CandidateReport,
    SuiteError,
    TestCase,
    TestSuite,
    synthesize_error_message,
)
from sceneground.scene import (
    PairGeometry,
    Scene,
    SceneError,
    normalize_label,
    precompute_geometry,
)

_HIGH_EPS = 1e-6


def reference_sanitize(data: np.ndarray) -> np.ndarray:
    """In place: nan -> 0, +inf -> FEATURE_CAP, -inf and negatives -> 0."""
    np.nan_to_num(data, copy=False, nan=0.0, posinf=FEATURE_CAP, neginf=0.0)
    np.maximum(data, 0.0, out=data)
    return data


def finalize_feature(raw, rank: int, n: int) -> np.ndarray:
    """Sanitize to finite nonnegative values; zero every repeated-index entry."""
    data = np.asarray(raw, dtype=np.float64)
    return _finalize_owned(np.array(np.broadcast_to(data, (n,) * rank), order="C"), rank)


def compute_category_feature(scene: Scene, sim_column: np.ndarray,
                             category: str = "") -> CategoryFeature:
    sim = np.asarray(sim_column, dtype=np.float64)
    if sim.shape != (len(scene),):
        raise ExecutionError(
            f"similarity column has shape {sim.shape}, scene has {len(scene)} objects"
        )
    data = stable_softmax(CATEGORY_SCALE * sim)
    data.setflags(write=False)
    return CategoryFeature(category=category, data=data)


def pair_delta(geom: PairGeometry) -> np.ndarray:
    """``delta[i, j] = center_i - center_j``, shape (N, N, 3)."""
    return geom.centers[:, None, :] - geom.centers[None, :, :]


def pair_dist(geom: PairGeometry) -> np.ndarray:
    """Euclidean norm of :func:`pair_delta`: symmetric, zero diagonal."""
    delta = pair_delta(geom)
    return np.sqrt(np.sum(delta * delta, axis=2))


def _unit_toward(geom: PairGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Unit xy-direction from the scene centroid toward each object."""
    nx = geom.centers[:, 0] - geom.centroid_xy[0]
    ny = geom.centers[:, 1] - geom.centroid_xy[1]
    norm = np.sqrt(nx * nx + ny * ny)
    return guarded_div(nx, norm), guarded_div(ny, norm)


def _proximity(geom: PairGeometry) -> np.ndarray:
    return guarded_exp(-guarded_div(pair_dist(geom), geom.mean_diagonal))


def _lateral_sign(geom: PairGeometry) -> np.ndarray:
    """Antisymmetric lateral projection: positive where i sits to the
    viewer's right of anchor j. s[j, i] is the exact float negative of
    s[i, j], which makes the left/right antisymmetry invariant exact."""
    vx, vy = _unit_toward(geom)
    ux, uy = -vy, vx
    delta = pair_delta(geom)
    dx = delta[:, :, 0]
    dy = delta[:, :, 1]
    toward_j = dx * ux[None, :] + dy * uy[None, :]
    toward_i = (-dx) * ux[:, None] + (-dy) * uy[:, None]
    return (toward_j - toward_i) * 0.5


def _facing_projection(geom: PairGeometry) -> np.ndarray:
    """Projection of (center_i - center_j) onto the viewer->anchor direction."""
    vx, vy = _unit_toward(geom)
    delta = pair_delta(geom)
    return delta[:, :, 0] * vx[None, :] + delta[:, :, 1] * vy[None, :]


def _above_raw(geom: PairGeometry) -> np.ndarray:
    cz = geom.centers[:, 2]
    h = geom.sizes[:, 2]
    bottom_i = (cz - h / 2)[:, None]
    top_j = (cz + h / 2)[None, :]
    vertical_proximity = guarded_exp(-guarded_div(np.abs(bottom_i - top_j), (h * 0.5)[:, None]))
    delta = pair_delta(geom)
    dx = np.abs(delta[:, :, 0])
    dy = np.abs(delta[:, :, 1])
    w = geom.sizes[:, 0]
    d = geom.sizes[:, 1]
    combined_x = (w[:, None] + w[None, :]) * 0.5
    combined_y = (d[:, None] + d[None, :]) * 0.5
    horizontal_alignment = guarded_exp(-(guarded_div(dx, combined_x) + guarded_div(dy, combined_y)))
    return vertical_proximity * horizontal_alignment


def _between_raw(geom: PairGeometry) -> np.ndarray:
    c = geom.centers
    ci = c[:, None, None, :]
    cj = c[None, :, None, :]
    ck = c[None, None, :, :]
    seg = ck - cj
    rel = ci - cj
    seg_len2 = np.sum(seg * seg, axis=3)
    t = guarded_div(np.sum(rel * seg, axis=3), seg_len2)
    p = np.clip(t, 0.0, 1.0)
    off = rel - p[..., None] * seg
    r = np.sqrt(np.sum(off * off, axis=3))
    return guarded_exp(-guarded_div(r, geom.mean_diagonal)) * 4.0 * (p * (1.0 - p))


def _high_raw(geom: PairGeometry) -> np.ndarray:
    cz = geom.centers[:, 2]
    lo = float(cz.min())
    hi = float(cz.max())
    return guarded_div(cz - lo, (hi - lo) + _HIGH_EPS)


def _on_the_floor_raw(geom: PairGeometry) -> np.ndarray:
    bottoms = geom.centers[:, 2] - geom.sizes[:, 2] / 2
    return guarded_exp(-guarded_div(bottoms - geom.floor_z, geom.mean_diagonal * 0.25))


def _wall_gaps(geom: PairGeometry) -> tuple[np.ndarray, np.ndarray]:
    """Per-object smallest gap to the x-walls and to the y-walls of the hull."""
    cx = geom.centers[:, 0]
    cy = geom.centers[:, 1]
    wx = geom.sizes[:, 0] * 0.5
    wy = geom.sizes[:, 1] * 0.5
    gx = np.minimum((cx - wx) - geom.hull_min[0], geom.hull_max[0] - (cx + wx))
    gy = np.minimum((cy - wy) - geom.hull_min[1], geom.hull_max[1] - (cy + wy))
    return gx, gy


def _against_the_wall_raw(geom: PairGeometry) -> np.ndarray:
    gx, gy = _wall_gaps(geom)
    return guarded_exp(-guarded_div(np.minimum(gx, gy), geom.mean_diagonal * 0.25))


def _at_the_corner_raw(geom: PairGeometry) -> np.ndarray:
    gx, gy = _wall_gaps(geom)
    return guarded_exp(-guarded_div(gx + gy, geom.mean_diagonal * 0.25))


_NATIVE = {
    "large": lambda geom: guarded_div(geom.volumes, float(geom.volumes.max())),
    "small": lambda geom: guarded_div(float(geom.volumes.min()), geom.volumes),
    "high": _high_raw,
    "low": lambda geom: 1.0 - _high_raw(geom),
    "on_the_floor": _on_the_floor_raw,
    "against_the_wall": _against_the_wall_raw,
    "at_the_corner": _at_the_corner_raw,
    "near": _proximity,
    "far": lambda geom: 1.0 - _proximity(geom),
    "above": _above_raw,
    "below": lambda geom: _above_raw(geom).T,
    "left": lambda geom: np.maximum(-_lateral_sign(geom), 0.0) * _proximity(geom),
    "right": lambda geom: np.maximum(_lateral_sign(geom), 0.0) * _proximity(geom),
    "front": lambda geom: np.maximum(-_facing_projection(geom), 0.0) * _proximity(geom),
    "behind": lambda geom: np.maximum(_facing_projection(geom), 0.0) * _proximity(geom),
    "between": _between_raw,
}


def compute_builtin(relation: str, scene: Scene, geom: PairGeometry) -> RelationFeature:
    """Native route: vectorized numpy computation of a builtin feature."""
    rank = relation_arity(relation)
    raw = _NATIVE[relation](geom)
    return RelationFeature(relation=relation, rank=rank,
                           data=finalize_feature(raw, rank, len(scene)))


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


# the node grammar as the reference validator spells it, apart from the library's
_GET_FIELDS = {"center": True, "size": True, "bottom": False, "top": False, "volume": False}
_AGG_FIELDS = {
    "mean_diagonal": None,
    "floor_z": None,
    "hull_min": ("x", "y"),
    "hull_max": ("x", "y"),
    "centroid": ("x", "y"),
    "volume_min": None,
    "volume_max": None,
    "center_min": ("x", "y", "z"),
    "center_max": ("x", "y", "z"),
}
_AXES = {"x": 0, "y": 1, "z": 2}
OPS = {
    "add": 2, "sub": 2, "mul": 2, "div": 2, "min": 2, "max": 2,
    "abs": 1, "neg": 1, "exp": 1, "sqrt": 1, "relu": 1, "clamp01": 1,
    "dot2": 4, "cross2": 4,
}


def _validate_node(node: object, allowed_objs: tuple[str, ...], depth: int,
                   path: tuple | None) -> int:
    """Return node count of the subtree; raise DefinitionError at the first fault.

    ``path`` is ``(parent_path, arg_position)``, ``None`` at the root; it is
    spelled out only for the error message. A name that is a list or an
    object escapes as TypeError here.
    """
    if depth > MAX_TREE_DEPTH:
        raise _fault(path, f"tree depth exceeds {MAX_TREE_DEPTH}")
    if not isinstance(node, dict):
        raise _fault(path, f"node must be an object, got {type(node).__name__}")
    if "const" in node:
        value = node["const"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not np.isfinite(value):
            raise _fault(path, "const must be a finite number")
        return 1
    if "get" in node:
        field = node["get"]
        if field not in _GET_FIELDS:
            raise _fault(path, f"unknown accessor {field!r}")
        obj = node.get("obj")
        if obj not in allowed_objs:
            raise _fault(
                path, f"accessor object {obj!r} not allowed here (allowed: {allowed_objs})"
            )
        needs_axis = _GET_FIELDS[field]
        axis = node.get("axis")
        if needs_axis and axis not in _AXES:
            raise _fault(path, f"accessor {field!r} needs axis x|y|z")
        if not needs_axis and axis is not None:
            raise _fault(path, f"accessor {field!r} takes no axis")
        return 1
    if "agg" in node:
        name = node["agg"]
        if name not in _AGG_FIELDS:
            raise _fault(path, f"unknown aggregate {name!r}")
        axes = _AGG_FIELDS[name]
        axis = node.get("axis")
        if axes is None and axis is not None:
            raise _fault(path, f"aggregate {name!r} takes no axis")
        if axes is not None and axis not in axes:
            raise _fault(path, f"aggregate {name!r} needs axis in {axes}")
        return 1
    if "op" in node:
        name = node["op"]
        if name not in OPS:
            raise _fault(path, f"unknown op {name!r}")
        args = node.get("args")
        if not isinstance(args, list) or len(args) != OPS[name]:
            raise _fault(path, f"op {name!r} takes {OPS[name]} args")
        count = 1
        for k, child in enumerate(args):
            count += _validate_node(child, allowed_objs, depth + 1, (path, k))
        return count
    raise _fault(path, "node must have one of const/get/agg/op")


def reference_validate(defn: EncoderDefinition) -> None:
    """Static check: well-formed tree, arity-consistent accessors, size caps."""
    arity = relation_arity(defn.relation)
    allowed = OBJS_FOR_ARITY[arity]
    count = _validate_node(defn.body, allowed, 1, None)
    if count > MAX_TREE_NODES:
        raise DefinitionError(f"body: tree has {count} nodes, cap is {MAX_TREE_NODES}")


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
        reference_validate(defn)
    except DefinitionError as exc:
        return CandidateReport(definition=defn, pass_rate=0.0, failures=(),
                               note=f"validation failed: {exc}")
    features: dict[str, RelationFeature] = {}
    passed = 0
    failures = []
    for case in suite.cases:
        scene = suite.scenes[case.scene_id]
        if case.scene_id not in features:
            features[case.scene_id] = tree_walk_eval(defn, scene, precompute_geometry(scene))
        if _case_passes(features[case.scene_id], scene, case):
            passed += 1
        else:
            failures.append((case, synthesize_error_message(case, scene, suite.relation)))
    return CandidateReport(definition=defn, pass_rate=passed / len(suite.cases),
                           failures=tuple(failures))


def _walk(node: dict, path: tuple[int, ...], out: list) -> None:
    out.append((path, node))
    for k, child in enumerate(node.get("args", [])):
        _walk(child, path + (k,), out)


def all_nodes(body: dict) -> list[tuple[tuple[int, ...], dict]]:
    """Every (path, node) of a body, depth first, repeats included. It walks
    the ``args`` of every node, so a leaf's extra ``args`` key, which the
    check ignores, is walked too."""
    out: list = []
    _walk(body, (), out)
    return out


def reference_canonical_json(defn: EncoderDefinition) -> str:
    return json.dumps({"relation": defn.relation, "body": defn.body}, sort_keys=True)


def reference_digest(defn: EncoderDefinition) -> str:
    return hashlib.sha256(reference_canonical_json(defn).encode("utf-8")).hexdigest()


def prefix_scores(expr: SymbolicExpression, scene: Scene, cache: FeatureCache) -> list[np.ndarray]:
    """The category feature, then the score of each clause prefix executed
    as its own expression."""
    steps = [cache.category_feature(expr.category).data]
    for n_clauses in range(1, len(expr.relations) + 1):
        partial = SymbolicExpression(category=expr.category, relations=expr.relations[:n_clauses])
        steps.append(execute(partial, scene, cache).data)
    return steps


def single_clause_predictions(expr: SymbolicExpression, scene: Scene,
                              cache: FeatureCache) -> list[int]:
    """Argmax id of each root clause executed alone with the category."""
    return [execute(SymbolicExpression(category=expr.category, relations=(clause,)),
                    scene, cache).argmax_id()
            for clause in expr.relations]


def reference_condition_level(entries: list[tuple[str, SymbolicExpression, int]],
                              scenes: dict[str, Scene],
                              caches: dict[str, FeatureCache]) -> tuple[float, float]:
    """Macro-averaged precision/recall over (scene, category) groups of the
    single-clause predictions; (1.0, 1.0) without conditions."""
    predicted: dict[tuple[str, str], set[int]] = {}
    truth: dict[tuple[str, str], set[int]] = {}
    for scene_id, expr, ground_truth in entries:
        group = (scene_id, normalize_label(expr.category))
        for argmax in single_clause_predictions(expr, scenes[scene_id], caches[scene_id]):
            predicted.setdefault(group, set()).add(argmax)
            truth.setdefault(group, set()).add(ground_truth)
    if not predicted:
        return 1.0, 1.0
    hits = [(len(preds & truth[g]), len(preds), len(truth[g])) for g, preds in predicted.items()]
    return (float(np.mean([h / p for h, p, _ in hits])),
            float(np.mean([h / t for h, _, t in hits])))


def reference_scene_rows(raw: dict) -> tuple[list[int], list[str], list[list[float]]]:
    """Ids, labels and float bbox rows of a wire-format scene's objects, or
    the SceneError of its first faulty object (object order), then of its
    first repeated id."""
    ids, labels, rows = [], [], []
    for position, entry in enumerate(raw["objects"]):
        if not isinstance(entry, dict):
            raise SceneError(f"objects[{position}]: expected an object, got {type(entry).__name__}")
        for key in ("id", "label", "bbox"):
            if key not in entry:
                raise SceneError(f"objects[{position}]: missing field {key!r}")
        oid, label, bbox = entry["id"], entry["label"], entry["bbox"]
        if not isinstance(oid, int) or isinstance(oid, bool):
            raise SceneError(f"objects[{position}]: id must be an integer, got {oid!r}")
        where = f"objects[{position}] (id {oid})"
        if not isinstance(label, str):
            raise SceneError(f"{where}: label must be a string")
        if not isinstance(bbox, list) or len(bbox) != 6:
            raise SceneError(f"{where}: bbox must be [cx, cy, cz, w, d, h]")
        for k, v in enumerate(bbox):
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise SceneError(f"{where}: bbox[{k}] is not a number")
        row = []
        for k, v in enumerate(bbox):
            try:
                row.append(float(v))
            except OverflowError:
                raise SceneError(f"{where}: bbox[{k}] is too large for a float") from None
        for v in row:
            if not math.isfinite(v):
                raise SceneError(f"object id {oid}: non-finite bounding box component: {v!r}")
        if any(s <= 0 for s in row[3:]):
            raise SceneError(f"object id {oid}: size components must be strictly positive, "
                             f"got {tuple(row[3:])}")
        if oid < 0:
            raise SceneError(f"object id {oid}: object id must be non-negative, got {oid}")
        if not normalize_label(label):
            raise SceneError(f"object id {oid}: object {oid}: label must not be empty "
                             f"or only whitespace")
        ids.append(oid)
        labels.append(label)
        rows.append(row)
    for position, oid in enumerate(ids):
        if oid in ids[:position]:
            raise SceneError(f"scene {raw['scene_id']!r}: duplicate id {oid}")
    return ids, labels, rows


def reference_fingerprint(scene_id: str, ids: list[int], labels: list[str],
                          rows: list[list[float]]) -> str:
    objects = [{"id": oid, "label": label, "bbox": row}
               for oid, label, row in zip(ids, labels, rows)]
    payload = json.dumps({"scene_id": scene_id, "objects": objects}, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def reference_geometry(rows: list[list[float]]) -> dict:
    """The pair-geometry fields, from per-object center and size tuples."""
    centers = np.array([tuple(row[:3]) for row in rows], dtype=np.float64)
    sizes = np.array([tuple(row[3:]) for row in rows], dtype=np.float64)
    diagonals = np.sqrt(np.sum(sizes * sizes, axis=1))
    bottoms = centers[:, 2] - sizes[:, 2] / 2
    lo = centers[:, :2] - sizes[:, :2] / 2
    hi = centers[:, :2] + sizes[:, :2] / 2
    return {
        "centers": centers,
        "sizes": sizes,
        "mean_diagonal": float(np.mean(diagonals)),
        "floor_z": float(np.min(bottoms)),
        "hull_min": lo.min(axis=0),
        "hull_max": hi.max(axis=0),
        "centroid_xy": centers[:, :2].mean(axis=0),
        "volumes": np.prod(sizes, axis=1),
    }
