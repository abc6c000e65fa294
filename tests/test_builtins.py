import math

import numpy as np
import pytest

from sceneground.builtins import builtin_definitions, encoder_to_dsl
from sceneground.dsl import eval_encoder
from sceneground.expression import ALL_RELATIONS, relation_arity
from sceneground.scene import precompute_geometry, scene_from_dict

from helpers import random_scene
from oracles import compute_builtin


def builtin(relation, scene, geom):
    return eval_encoder(encoder_to_dsl(relation), scene, geom)


def feature(relation, scene):
    return builtin(relation, scene, precompute_geometry(scene)).data


def test_above_stacked_unit_cubes_scores_one():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 1.0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [0, 0, 0.0, 1, 1, 1]},
    ]})
    data = feature("above", scene)
    # bottom of i meets top of j and the pair is perfectly aligned
    assert data[0, 1] == 1.0
    assert data[0, 0] == 0.0 and data[1, 1] == 0.0


def test_near_345_example():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [3, 4, 0, 1, 1, 1]},
    ]})
    data = feature("near", scene)
    md = math.sqrt(3.0)
    assert data[0, 1] == pytest.approx(math.exp(-5.0 / md), abs=1e-5)
    # exact value under the guarded division the encoders use
    assert data[0, 1] == math.exp(-5.0 / (md + 1e-6))


def test_every_relation_exports_and_matches_native():
    rng = np.random.default_rng(123)
    worst = 0.0
    for k in range(50):
        scene = random_scene(rng, int(rng.integers(2, 9)), f"s{k}")
        geom = precompute_geometry(scene)
        for relation in ALL_RELATIONS:
            native = compute_builtin(relation, scene, geom).data
            exported = eval_encoder(encoder_to_dsl(relation), scene, geom).data
            worst = max(worst, float(np.max(np.abs(native - exported))))
    assert worst <= 1e-9


def test_near_far_symmetry_exact():
    rng = np.random.default_rng(7)
    for k in range(30):
        scene = random_scene(rng, int(rng.integers(2, 9)), f"s{k}")
        for relation in ("near", "far"):
            data = feature(relation, scene)
            assert np.array_equal(data, data.T)


def test_left_right_antisymmetry_exact():
    rng = np.random.default_rng(8)
    for k in range(30):
        scene = random_scene(rng, int(rng.integers(2, 9)), f"s{k}")
        for relation in ("left", "right"):
            data = feature(relation, scene)
            positive = data > 0
            assert not np.any(positive & positive.T)
            assert np.all(data.T[positive] == 0.0)


def test_below_is_above_transposed_exactly():
    rng = np.random.default_rng(9)
    for k in range(20):
        scene = random_scene(rng, int(rng.integers(2, 9)), f"s{k}")
        geom = precompute_geometry(scene)
        above = builtin("above", scene, geom).data
        below = builtin("below", scene, geom).data
        assert np.array_equal(below, above.T)


def test_all_features_nonnegative_finite_zero_diagonal():
    rng = np.random.default_rng(10)
    for k in range(20):
        scene = random_scene(rng, int(rng.integers(1, 9)), f"s{k}")
        geom = precompute_geometry(scene)
        n = len(scene)
        for relation in ALL_RELATIONS:
            data = builtin(relation, scene, geom).data
            assert np.isfinite(data).all()
            assert (data >= 0).all()
            rank = relation_arity(relation)
            if rank == 2:
                assert np.all(np.diag(data) == 0.0)
            elif rank == 3:
                idx = np.arange(n)
                assert np.all(data[idx, idx, :] == 0.0)
                assert np.all(data[idx, :, idx] == 0.0)
                assert np.all(data[:, idx, idx] == 0.0)


def test_translation_invariance():
    rng = np.random.default_rng(21)
    shift = np.array([13.5, -7.25, 3.75])
    for k in range(15):
        scene = random_scene(rng, int(rng.integers(2, 8)), f"s{k}")
        moved = scene_from_dict({
            "scene_id": scene.scene_id,
            "objects": [
                {"id": o.id, "label": o.label,
                 "bbox": [*(np.array(o.bbox.center) + shift).tolist(), *o.bbox.size]}
                for o in scene.objects
            ],
        })
        for relation in ALL_RELATIONS:
            a = feature(relation, scene)
            b = feature(relation, moved)
            assert np.allclose(a, b, atol=1e-9, rtol=0.0), relation


def test_permutation_equivariance():
    rng = np.random.default_rng(22)
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
        for relation in ALL_RELATIONS:
            a = feature(relation, scene)
            b = feature(relation, permuted)
            rank = relation_arity(relation)
            if rank == 1:
                expected = a[perm]
            elif rank == 2:
                expected = a[np.ix_(perm, perm)]
            else:
                expected = a[np.ix_(perm, perm, perm)]
            assert np.allclose(b, expected, atol=1e-9, rtol=0.0), relation


def test_between_peaks_at_midpoint():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "mid", "bbox": [5, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "off", "bbox": [5, 4, 0, 1, 1, 1]},
        {"id": 2, "label": "left", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 3, "label": "right", "bbox": [10, 0, 0, 1, 1, 1]},
    ]})
    data = feature("between", scene)
    assert data[0, 2, 3] > data[1, 2, 3]
    assert data[0, 2, 3] > 0.9
    # endpoints and repeated indices contribute nothing
    assert data[2, 2, 3] == 0.0 and data[0, 2, 2] == 0.0


def test_large_small_high_low_ordering():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "big", "bbox": [0, 0, 1.0, 2, 2, 2]},
        {"id": 1, "label": "small", "bbox": [4, 0, 0.25, 0.5, 0.5, 0.5]},
        {"id": 2, "label": "tall", "bbox": [8, 0, 3.0, 1, 1, 1]},
    ]})
    large = feature("large", scene)
    small = feature("small", scene)
    high = feature("high", scene)
    low = feature("low", scene)
    assert large[0] > large[1] and large[0] > large[2]
    assert small[1] > small[0]
    assert high[2] > high[0] > high[1]
    assert low[1] > low[2]


def test_floor_wall_corner_scores():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        # box 0 sits on the floor and pins the west/south walls and a corner
        {"id": 0, "label": "corner", "bbox": [0.5, 0.5, 0.5, 1, 1, 1]},
        {"id": 1, "label": "mid", "bbox": [5, 4, 2.0, 1, 1, 1]},
        {"id": 2, "label": "east", "bbox": [9.5, 4, 0.5, 1, 1, 1]},
        {"id": 3, "label": "north", "bbox": [5, 7.5, 0.5, 1, 1, 1]},
    ]})
    floor = feature("on_the_floor", scene)
    wall = feature("against_the_wall", scene)
    corner = feature("at_the_corner", scene)
    assert floor[0] == 1.0  # bottom face exactly at floor level
    assert floor[1] < 0.05 < floor[0]
    assert wall[0] == 1.0 and wall[2] == 1.0
    assert wall[1] < 0.01
    assert corner[0] > 0.9
    assert corner[0] > corner[2] > corner[1]


def test_directional_relations_use_centroid_viewpoint():
    # room centered near the origin; anchor straight north of the centroid
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "anchor", "bbox": [0, 3, 0, 1, 1, 1]},
        {"id": 1, "label": "west", "bbox": [-2, 3, 0, 1, 1, 1]},
        {"id": 2, "label": "east", "bbox": [2, 3, 0, 1, 1, 1]},
        {"id": 3, "label": "south", "bbox": [0, -9, 0, 1, 1, 1]},
    ]})
    right = feature("right", scene)
    left = feature("left", scene)
    front = feature("front", scene)
    behind = feature("behind", scene)
    # facing north toward the anchor, +u is the counter-clockwise (west) side
    assert right[1, 0] > 0 and right[2, 0] == 0.0
    assert left[2, 0] > 0 and left[1, 0] == 0.0
    # the viewer-side object is in front, the far side is behind
    assert front[3, 0] > 0 and behind[3, 0] == 0.0
    assert behind[1, 0] == 0.0 or front[1, 0] == 0.0  # lateral object is not both


def test_binary_relations_have_rank_two():
    rng = np.random.default_rng(33)
    scene = random_scene(rng, 4, "s")
    geom = precompute_geometry(scene)
    for relation in [r for r in ALL_RELATIONS if relation_arity(r) == 2]:
        assert builtin(relation, scene, geom).data.shape == (4, 4)


# sha256 of each builtin's canonical JSON; a change here changes every
# registry digest and optimizer log that names a builtin
BUILTIN_DIGESTS = {
    "large": "b86634b782cd4ee4c940f940d341f827387ff0a19c16a65b4c377b825cdce225",
    "small": "d7314a1f3b3abcef8123ffcd28ba26dafe6f68899d720325c735da4cb859829d",
    "high": "321ccd642ee54ab44fcf585b7d7042d6e324a48966fa33a2205717aff14cd37f",
    "low": "6319bcd6dd7edc7c497d5ce5e9e246a8f1c196622eef8eeee3333ce720bb0667",
    "on_the_floor": "50bd658ca74f6a2194002fd643691669f2a7e3a1546c2af2ea9588aac497505f",
    "against_the_wall": "3465d11f74ef703f308228457f721ccd77abb03bd1fe3a3a05633adc86513e94",
    "at_the_corner": "ba523f3c9a005e7220b376ace1872b7ce5f3e72dc2a9ffbd026f2b3e06bf7beb",
    "near": "48b6f0c658cd2131666030549103ceb00a4e1573d5711f8a5a0be8a551daa29c",
    "far": "1c9d2f81e9ce62f6a4af0b4e0ee808cb2767860e8f7914cad7e6a96c5d380028",
    "above": "ca5aa186234a3c34123b94fcadf0c7165ce335d074b1a3d2c9c187f2df3d7497",
    "below": "fbc035d09fb59c64daac6a9dd434e6a4948500274d47253597d5e80f39938921",
    "left": "ce7213fa8884cd6fb430caa2e0dfabb015b8ee82c5e181d661b6ea488f0a4257",
    "right": "5e38c68e6d51789c7a26bb3196e2e2b8d36f7fc2f0e9a8fbcb12b446d5af2ef0",
    "front": "c343aa7d0ea70c3d2e52ee10052cd0306fd5dca2d810d24254139b7fc86c9c0b",
    "behind": "7635dd04cadeb6e478a7c76ba2460d98fe05455b3c96d01816663c1b1386a4ac",
    "between": "3fb0c690b7280ed4d96ee65646dd998879f4f3a86d5a24659819c79fdc3d7eac",
}


def test_builtin_digests_are_pinned_and_definitions_shared():
    definitions = builtin_definitions()
    assert list(definitions) == list(ALL_RELATIONS)
    assert {name: d.digest() for name, d in definitions.items()} == BUILTIN_DIGESTS
    for name, defn in definitions.items():
        assert encoder_to_dsl(name) is encoder_to_dsl(name) is defn
        assert defn.metadata == "builtin"
    assert builtin_definitions() is not definitions
