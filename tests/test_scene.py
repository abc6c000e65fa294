import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sceneground.scene import (
    Scene,
    SceneError,
    SimilarityTable,
    exact_match_rows,
    load_scene,
    normalize_label,
    precompute_geometry,
    save_scene,
    scene_from_dict,
)

from helpers import random_scene
from oracles import (
    pair_delta,
    pair_dist,
    reference_fingerprint,
    reference_geometry,
    reference_scene_rows,
)


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
    assert exact_match_rows(scene, ["chair"])[0].tolist() == [1.0, 0.0]


def test_exact_match_similarity_duplicates_and_synonyms():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "chair", "bbox": [2, 0, 0, 1, 1, 1]},
    ]})
    assert exact_match_rows(scene, ["chair"])[0].tolist() == [1.0, 1.0]
    sofa = scene_from_dict({"scene_id": "s2", "objects": [
        {"id": 0, "label": "sofa", "bbox": [0, 0, 0, 1, 1, 1]},
    ]})
    assert exact_match_rows(sofa, ["couch"])[0].tolist() == [0.0]


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


def test_similarity_column_is_the_first_matching_category():
    scene = scene_from_dict({
        "scene_id": "s",
        "objects": [{"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 1]}],
        "similarities": {"categories": ["table", " Seat", "seat  ", "SEAT"],
                         "values": [[0.1, 0.2, 0.3, 0.4]]},
    })
    assert scene.similarities.column("seat").tolist() == [0.2]
    assert scene.similarities.column("TABLE").tolist() == [0.1]
    assert scene.similarities.column("stool") is None


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
    table = SimilarityTable(categories=("chair",), values=exact_match_rows(scene, ["chair"]).T)
    with pytest.raises(ValueError):
        table.values[1, 0] = 1.0
    column = scene.similarities.column("seat")
    column[0] = 0.0
    assert scene.similarities.column("seat").tolist() == [0.9, 0.1]


def test_similarity_column_matches_the_per_lookup_rule():
    """The first category whose normalized form matches wins, as when each
    lookup normalized every category of the table in turn."""
    categories = ("Office Chair", "table", "office  chair", "TABLE ", "lamp")
    table = SimilarityTable(categories=categories,
                            values=np.linspace(-1.0, 1.0, 15).reshape(3, 5))

    def per_lookup(category):
        for q, name in enumerate(categories):
            if normalize_label(name) == normalize_label(category):
                return table.values[:, q].tolist()
        return None

    for query in ("office chair", " OFFICE\tCHAIR", "Table", "lamp", "sofa", ""):
        column = table.column(query)
        assert (None if column is None else column.tolist()) == per_lookup(query)
    assert table.column("office chair").tolist() == table.values[:, 0].tolist()
    assert table.column("table").tolist() == table.values[:, 1].tolist()


def test_normalized_labels_are_memoized_per_scene():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "  Office\tChair ", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "table", "bbox": [3, 0, 0, 1, 1, 1]}]})
    assert scene.normalized_labels == ("office chair", "table")
    assert scene.normalized_labels is scene.normalized_labels
    assert exact_match_rows(scene, ["OFFICE  chair"])[0].tolist() == [1.0, 0.0]


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
        "objects": [{"id": o.id, "label": o.label, "bbox": [*o.bbox.center, *o.bbox.size]}
                    for o in scene.objects],
    })
    assert twin == scene and twin.fingerprint() == before
    moved = scene_from_dict({
        "scene_id": scene.scene_id,
        "objects": [{"id": o.id, "label": o.label, "bbox": [o.bbox.center[0] + 1e-9,
                                                            *o.bbox.center[1:],
                                                            *o.bbox.size]}
                    for o in scene.objects],
    })
    assert moved.fingerprint() != before


COORDS = st.one_of(st.integers(-10**6, 10**6), st.floats(-1e6, 1e6), st.just(-0.0))
SIZES = st.one_of(st.integers(1, 10**6), st.floats(1e-6, 1e6))
LABELS = st.sampled_from(["chair", "  Office\tChair ", "TABLE", "lamp", "table"])


@st.composite
def wire_objects(draw, max_size=12):
    n = draw(st.integers(1, max_size))
    ids = draw(st.lists(st.integers(0, 10**9), min_size=n, max_size=n, unique=True))
    return [{"id": oid, "label": draw(LABELS),
             "bbox": [draw(COORDS) for _ in range(3)] + [draw(SIZES) for _ in range(3)]}
            for oid in ids]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(wire_objects())
@example([{"id": 0, "label": "chair", "bbox": [-0.0, 1, 2.5, 3, 0.5, 1]}])
def test_columns_match_the_per_object_loader(objects):
    raw = {"scene_id": "s", "objects": objects}
    ids, labels, rows = reference_scene_rows(raw)
    scene = scene_from_dict(raw)
    assert scene.object_ids == tuple(ids) and scene.ids == ids
    assert scene.object_labels == tuple(labels) and scene.labels == labels
    assert scene.normalized_labels == tuple(normalize_label(label) for label in labels)
    assert scene.boxes.shape == (len(ids), 6) and not scene.boxes.flags.writeable
    assert scene.boxes.tobytes() == np.array(rows, dtype=np.float64).tobytes()  # -0.0 kept
    assert ([(o.id, o.label, [*o.bbox.center, *o.bbox.size]) for o in scene.objects]
            == list(zip(ids, labels, rows)))
    assert scene.objects is scene.objects
    again = scene_from_dict({"scene_id": "s", "objects": [
        {"id": o.id, "label": o.label, "bbox": [*o.bbox.center, *o.bbox.size]}
        for o in scene.objects]})
    assert again == scene and again.boxes.tobytes() == scene.boxes.tobytes()
    assert scene.fingerprint() == reference_fingerprint("s", ids, labels, rows)
    geom = precompute_geometry(scene)
    for name, value in reference_geometry(rows).items():
        assert np.asarray(getattr(geom, name)).tobytes() == np.asarray(value).tobytes(), name


def _set_bbox(k, value):
    def fault(entry, objects):
        entry["bbox"] = list(entry["bbox"])
        entry["bbox"][k] = value
        return entry

    return fault


def _set(key, value):
    def fault(entry, objects):
        entry[key] = value
        return entry

    return fault


FAULTS = {
    "not_an_object": lambda entry, objects: 5,
    "missing_label": lambda entry, objects: {k: v for k, v in entry.items() if k != "label"},
    "bool_id": _set("id", True),
    "numeric_label": _set("label", 3),
    "short_bbox": lambda entry, objects: {**entry, "bbox": entry["bbox"][:5]},
    "string_value": _set_bbox(2, "1"),
    "bool_value": _set_bbox(4, True),
    "nan_center": _set_bbox(1, math.nan),
    "infinite_size": _set_bbox(5, math.inf),
    "zero_size": _set_bbox(3, 0),
    "negative_size": _set_bbox(4, -1.5),
    "huge_int": _set_bbox(0, 10**400),
    "negative_id": _set("id", -3),
    "blank_label": _set("label", " \t"),
    "repeated_id": lambda entry, objects: {**entry, "id": objects[0]["id"]},
}


def _error_text(load, raw):
    try:
        load(raw)
    except SceneError as exc:
        return str(exc)
    return None


class _Entry(dict):
    """A dict subclass: a scene of these fails the column type test, so
    every fault, value faults included, is found by the per-object walk."""


@settings(max_examples=200, deadline=None, derandomize=True)
@given(wire_objects(), st.lists(st.tuples(st.integers(0, 11), st.sampled_from(sorted(FAULTS))),
                                min_size=1, max_size=3), st.booleans())
def test_first_fault_matches_the_per_object_loader(objects, faults, subclass):
    for position, kind in dict((position % len(objects), kind) for position, kind in faults).items():
        objects[position] = FAULTS[kind](dict(objects[position]), objects)
    if subclass:
        objects = [_Entry(entry) if isinstance(entry, dict) else entry for entry in objects]
    raw = {"scene_id": "s", "objects": objects}
    assert _error_text(scene_from_dict, raw) == _error_text(reference_scene_rows, raw)


@pytest.mark.parametrize("first, second, message", [
    (_set_bbox(2, math.nan), _set_bbox(2, "x"),
     "object id 1: non-finite bounding box component: nan"),
    (_set_bbox(2, "x"), _set_bbox(4, 0), r"objects\[1\] \(id 1\): bbox\[2\] is not a number"),
    (_set("label", "  "), _set_bbox(0, 10**400), "object id 1: object 1: label must not be empty"),
    (_set_bbox(0, 10**400), _set("id", -2), r"objects\[1\] \(id 1\): bbox\[0\] is too large"),
], ids=["nan_before_type_fault", "type_fault_before_zero_size", "blank_label_before_overflow",
        "overflow_before_negative_id"])
def test_the_earlier_of_two_faulty_objects_is_reported(first, second, message):
    objects = [{"id": k, "label": "chair", "bbox": [k, 0, 0, 1, 1, 1]} for k in range(5)]
    objects[1] = first(objects[1], objects)
    objects[3] = second(objects[3], objects)
    with pytest.raises(SceneError, match=message):
        scene_from_dict({"scene_id": "s", "objects": objects})


GOOD_BOXES = [[0, 0, 0, 1, 1, 1], [2, 0, 0, 1, 1, 1]]


@pytest.mark.parametrize("ids, labels, boxes, message", [
    ((0, 1), ("chair", "table"), [[0, 0, 0, 1, 1, "1"], GOOD_BOXES[1]], "must be numbers"),
    ((0, 1), ("chair", "table"), [[True] * 6, [False] * 6], "must be numbers"),
    ((0, 1), ("chair", "table"), [GOOD_BOXES[0], [2, 0, 0, 1, 1]], "not a table"),
    ((0, 1), ("chair",), GOOD_BOXES, "do not match"),
    ((0, 1), ("chair", "table"), [GOOD_BOXES[0], [2, 0, 0, 1, -1, 1]],
     r"object id 1: size components must be strictly positive"),
    ((0, 1), ("chair", "table"), [[math.inf, 0, 0, 1, 1, 1], GOOD_BOXES[1]],
     "object id 0: non-finite bounding box component: inf"),
    ((0, -1), ("chair", "table"), GOOD_BOXES, "object id -1: object id must be non-negative"),
    ((0, 1), (" ", "table"), GOOD_BOXES, "object id 0: object 0: label must not be empty"),
    ((0, 0), ("chair", "table"), GOOD_BOXES, "duplicate id 0"),
], ids=["string", "bool", "ragged", "lengths", "size", "inf", "negative_id", "blank_label",
        "duplicate"])
def test_scene_constructor_checks_its_columns(ids, labels, boxes, message):
    with pytest.raises(SceneError, match=message):
        Scene("s", ids, labels, boxes)


def test_scene_constructor_matches_the_loader():
    built = Scene("s", [3, 7], ["Chair ", "table"], np.array(GOOD_BOXES))
    loaded = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 3, "label": "Chair ", "bbox": GOOD_BOXES[0]},
        {"id": 7, "label": "table", "bbox": GOOD_BOXES[1]}]})
    assert built == loaded and built.fingerprint() == loaded.fingerprint()
    assert built.normalized_labels == ("chair", "table")


def test_object_faults_come_before_similarity_faults():
    objects = [{"id": 0, "label": "chair", "bbox": [0, 0, 0, 1, 1, 0]}]
    with pytest.raises(SceneError, match="object id 0: size components"):
        scene_from_dict({"scene_id": "s", "objects": objects, "similarities": 3})
    objects[0]["bbox"][5] = 1
    with pytest.raises(SceneError, match="similarities must be"):
        scene_from_dict({"scene_id": "s", "objects": objects, "similarities": 3})
