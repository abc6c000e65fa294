import json
import math

import numpy as np
import pytest

from sceneground.scene import (
    BoundingBox,
    SceneError,
    exact_match_column,
    exact_match_similarity,
    load_scene,
    precompute_geometry,
    save_scene,
    scene_from_dict,
)

from helpers import random_scene
from oracles import pair_delta, pair_dist


def write_scene(tmp_path, payload):
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_load_scene_preserves_order_and_ids(tmp_path):
    path = write_scene(tmp_path, {
        "scene_id": "s",
        "objects": [
            {"id": 3, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
            {"id": 7, "label": "table", "bbox": [2, 0, 0, 1, 1, 1]},
        ],
    })
    scene = load_scene(path)
    assert len(scene) == 2
    assert scene.index_of[3] == 0
    assert scene.index_of[7] == 1
    assert scene.labels == ["chair", "table"]


def test_zero_size_component_names_object(tmp_path):
    path = write_scene(tmp_path, {
        "scene_id": "s",
        "objects": [{"id": 4, "label": "chair", "bbox": [0, 0, 0, 1, 0.0, 1]}],
    })
    with pytest.raises(SceneError, match="id 4"):
        load_scene(path)


def test_duplicate_id_rejected(tmp_path):
    path = write_scene(tmp_path, {
        "scene_id": "s",
        "objects": [
            {"id": 5, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
            {"id": 5, "label": "table", "bbox": [2, 0, 0, 1, 1, 1]},
        ],
    })
    with pytest.raises(SceneError, match="duplicate id 5"):
        load_scene(path)


def test_non_finite_component_rejected():
    with pytest.raises(SceneError):
        BoundingBox(center=(0.0, float("nan"), 0.0), size=(1.0, 1.0, 1.0))
    with pytest.raises(SceneError):
        BoundingBox(center=(0.0, 0.0, 0.0), size=(1.0, math.inf, 1.0))


def test_malformed_json_reports_location(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"scene_id": "s", "objects": [,]}', encoding="utf-8")
    with pytest.raises(SceneError, match="line 1"):
        load_scene(path)


def test_pair_geometry_345_triangle():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [3, 4, 0, 1, 1, 1]},
    ]})
    dist = pair_dist(precompute_geometry(scene))
    assert dist[0, 1] == 5.0
    assert dist[1, 0] == 5.0
    assert dist[0, 0] == 0.0


def test_pair_geometry_single_object():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [1, 2, 3, 1, 1, 1]},
    ]})
    dist = pair_dist(precompute_geometry(scene))
    assert dist.shape == (1, 1)
    assert dist[0, 0] == 0.0


def test_floor_z_is_min_bottom_face():
    # unit cubes with z-centers 0.5 and 2.5: bottoms 0.0 and 2.0
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0.5, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [0, 0, 2.5, 1, 1, 1]},
    ]})
    assert precompute_geometry(scene).floor_z == 0.0


def test_geometry_dist_matches_delta_norm():
    rng = np.random.default_rng(11)
    for k in range(20):
        scene = random_scene(rng, int(rng.integers(1, 10)), f"s{k}")
        geom = precompute_geometry(scene)
        dist = pair_dist(geom)
        norms = np.linalg.norm(pair_delta(geom), axis=2)
        assert np.allclose(dist, norms, rtol=1e-12, atol=0.0)
        assert np.array_equal(dist, dist.T)
        assert np.all(np.diag(dist) == 0.0)


def test_geometry_is_deterministic():
    rng = np.random.default_rng(5)
    scene = random_scene(rng, 7, "s")
    a = precompute_geometry(scene)
    b = precompute_geometry(scene)
    for name in ("centers", "sizes", "hull_min", "hull_max", "centroid_xy", "volumes"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert a.mean_diagonal == b.mean_diagonal
    assert a.floor_z == b.floor_z


def test_scene_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(3)
    scene = random_scene(rng, 6, "round")
    out = tmp_path / "round.json"
    save_scene(scene, out)
    again = load_scene(out)
    for a, b in zip(scene.objects, again.objects):
        assert a.id == b.id and a.label == b.label
        assert a.bbox.center == b.bbox.center
        assert a.bbox.size == b.bbox.size


def test_exact_match_similarity_casefold():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "Chair", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "table", "bbox": [2, 0, 0, 1, 1, 1]},
    ]})
    table = exact_match_similarity(scene, ["chair"])
    assert table.values[:, 0].tolist() == [1.0, 0.0]


def test_exact_match_similarity_duplicates_and_synonyms():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "chair", "bbox": [2, 0, 0, 1, 1, 1]},
    ]})
    assert exact_match_similarity(scene, ["chair"]).values[:, 0].tolist() == [1.0, 1.0]
    sofa = scene_from_dict({"scene_id": "s2", "objects": [
        {"id": 0, "label": "sofa", "bbox": [0, 0, 0, 1, 1, 1]},
    ]})
    assert exact_match_similarity(sofa, ["couch"]).values[:, 0].tolist() == [0.0]


def test_embedded_similarity_table(tmp_path):
    path = write_scene(tmp_path, {
        "scene_id": "s",
        "objects": [
            {"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
            {"id": 1, "label": "table", "bbox": [2, 0, 0, 1, 1, 1]},
        ],
        "similarities": {"categories": ["seat"], "values": [[0.9], [0.1]]},
    })
    scene = load_scene(path)
    assert scene.similarities is not None
    assert scene.similarities.column("seat").tolist() == [0.9, 0.1]
    assert scene.similarities.column("missing") is None


def test_similarity_range_validated(tmp_path):
    path = write_scene(tmp_path, {
        "scene_id": "s",
        "objects": [{"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]}],
        "similarities": {"categories": ["seat"], "values": [[1.5]]},
    })
    with pytest.raises(SceneError, match=r"\[-1, 1\]"):
        load_scene(path)


def test_similarity_values_are_a_read_only_copy():
    raw = np.array([[0.9], [0.1]])
    scene = scene_from_dict({
        "scene_id": "s",
        "objects": [
            {"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
            {"id": 1, "label": "table", "bbox": [2, 0, 0, 1, 1, 1]},
        ],
        "similarities": {"categories": ["seat"], "values": raw.tolist()},
    })
    with pytest.raises(ValueError):
        scene.similarities.values[0, 0] = -0.5
    table = exact_match_similarity(scene, ["chair"])
    with pytest.raises(ValueError):
        table.values[1, 0] = 1.0
    column = scene.similarities.column("seat")
    column[0] = 0.0
    assert scene.similarities.column("seat").tolist() == [0.9, 0.1]


def test_normalized_labels_are_memoized_per_scene():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "  Office\tChair ", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "table", "bbox": [3, 0, 0, 1, 1, 1]}]})
    assert scene.normalized_labels == ("office chair", "table")
    assert scene.normalized_labels is scene.normalized_labels
    assert exact_match_column(scene, "OFFICE  chair").tolist() == [1.0, 0.0]


def test_fingerprint_is_memoized_and_matches_a_fresh_scene():
    from sceneground.executor import FeatureCache, execute
    from sceneground.expression import parse_expression
    from sceneground.registry import EncoderRegistry

    scene = random_scene(np.random.default_rng(3), 6, "s")
    before = scene.fingerprint()
    expr = parse_expression(json.dumps({
        "category": scene.labels[0],
        "relations": [{"relation_name": "near", "objects": [{"category": scene.labels[1]}]}]}))
    execute(expr, scene, FeatureCache(scene, EncoderRegistry()))
    assert scene.fingerprint() == before
    twin = scene_from_dict({
        "scene_id": scene.scene_id,
        "objects": [{"id": o.id, "label": o.label, "bbox": o.bbox.as_row()}
                    for o in scene.objects],
    })
    assert twin == scene and twin.fingerprint() == before
    moved = scene_from_dict({
        "scene_id": scene.scene_id,
        "objects": [{"id": o.id, "label": o.label, "bbox": [o.bbox.center[0] + 1e-9,
                                                            *o.bbox.as_row()[1:]]}
                    for o in scene.objects],
    })
    assert moved.fingerprint() != before
