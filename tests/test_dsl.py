import json
import tracemalloc

import numpy as np
import pytest

import sceneground.dsl as dsl
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import (
    DefinitionError,
    EncoderDefinition,
    agg,
    compile_definition,
    const,
    eval_encoder,
    get,
    guarded_div,
    load_definition,
    op,
    save_definition,
    validate_definition,
)
from sceneground.scene import precompute_geometry

from helpers import random_scene
from oracles import finalize_feature


@pytest.fixture
def scene():
    return random_scene(np.random.default_rng(0), 5, "dsl")


@pytest.fixture
def geom(scene):
    return precompute_geometry(scene)


def test_builtin_definitions_validate():
    from sceneground.expression import ALL_RELATIONS

    for relation in ALL_RELATIONS:
        validate_definition(encoder_to_dsl(relation))


def test_unary_body_referencing_j_is_arity_error():
    defn = EncoderDefinition(relation="large", body=get("volume", "j"))
    with pytest.raises(DefinitionError, match="body"):
        validate_definition(defn)


def test_arity_error_names_node_path():
    body = op("add", const(1.0), get("center", "k", "x"))
    defn = EncoderDefinition(relation="near", body=body)
    with pytest.raises(DefinitionError, match=r"body\.args\[1\]"):
        validate_definition(defn)


def test_node_count_cap():
    # balanced tree: wide enough to trip the node cap, shallow enough for depth
    layer = [const(1.0) for _ in range(320)]
    while len(layer) > 1:
        layer = [op("add", layer[k], layer[k + 1]) for k in range(0, len(layer) - 1, 2)] \
            + ([layer[-1]] if len(layer) % 2 else [])
    defn = EncoderDefinition(relation="large", body=layer[0])
    with pytest.raises(DefinitionError, match="nodes"):
        validate_definition(defn)


def test_depth_cap():
    body = const(1.0)
    for _ in range(70):
        body = op("neg", body)
    with pytest.raises(DefinitionError, match="depth"):
        validate_definition(EncoderDefinition(relation="large", body=body))


def test_unknown_op_and_bad_const():
    with pytest.raises(DefinitionError, match="unknown op"):
        validate_definition(EncoderDefinition(relation="large", body={"op": "pow", "args": [const(1), const(2)]}))
    with pytest.raises(DefinitionError, match="finite"):
        validate_definition(EncoderDefinition(relation="large", body={"const": float("inf")}))


@pytest.mark.parametrize("body, path", [
    ({"get": []}, "body"),
    ({"op": {}, "args": []}, "body"),
    ({"agg": ["x"]}, "body"),
    ({"get": "center", "obj": "i", "axis": ["x"]}, "body"),
    (op("add", const(1.0), {"get": "size", "obj": "j", "axis": {"y": 1}}), r"body\.args\[1\]"),
])
def test_malformed_names_are_definition_errors(body, path):
    # list- or object-valued names used to escape as TypeError: unhashable type
    with pytest.raises(DefinitionError, match=rf"^{path}: "):
        validate_definition(EncoderDefinition(relation="near", body=body))


def test_guarded_div_never_blows_up():
    assert guarded_div(1.0, 0.0) == 1.0 / 1e-6
    assert guarded_div(1.0, -0.0) == 1.0 / 1e-6
    assert np.isfinite(guarded_div(np.array([1.0, -3.0]), np.array([0.0, -1e-9]))).all()


def test_guarded_div_matches_the_scaled_sign_form():
    def scaled_sign(a, b):
        b = np.asarray(b, dtype=np.float64)
        return a / (b + dsl.DIV_EPS * np.where(b >= 0.0, 1.0, -1.0))

    values = [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 2.5, -1e-9, 3]
    grid = np.array(values)
    with np.errstate(all="ignore"):
        for a in values:
            for b in values:
                got, want = guarded_div(a, b), scaled_sign(a, b)
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        got, want = guarded_div(grid[:, None], grid[None, :]), scaled_sign(grid[:, None], grid[None, :])
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_eval_guards_produce_finite_features(scene, geom):
    # division by a zero-able quantity, huge exp, sqrt of a negative
    body = op("add",
              op("div", const(1.0), op("sub", get("center", "i", "x"), get("center", "j", "x"))),
              op("add", op("exp", const(1000.0)), op("sqrt", const(-4.0))))
    feature = eval_encoder(EncoderDefinition(relation="near", body=body), scene, geom)
    assert np.isfinite(feature.data).all()
    assert (feature.data >= 0).all()


def test_finalize_zeroes_repeated_indices():
    n = 4
    rank2 = finalize_feature(np.ones((n, n)), 2, n)
    assert np.all(np.diag(rank2) == 0.0)
    rank3 = finalize_feature(np.ones((n, n, n)), 3, n)
    idx = np.arange(n)
    assert np.all(rank3[idx, idx, :] == 0.0)
    assert np.all(rank3[idx, :, idx] == 0.0)
    assert np.all(rank3[:, idx, idx] == 0.0)
    assert rank3[0, 1, 2] == 1.0


def test_negative_raw_values_clamped(scene, geom):
    body = const(-5.0)
    feature = eval_encoder(EncoderDefinition(relation="large", body=body), scene, geom)
    assert np.all(feature.data == 0.0)
    assert feature.data.shape == (len(scene),)


def test_rank_shapes_and_broadcast(scene, geom):
    n = len(scene)
    unary = eval_encoder(EncoderDefinition(relation="large", body=get("volume", "i")), scene, geom)
    assert unary.data.shape == (n,)
    binary = eval_encoder(EncoderDefinition(
        relation="near", body=op("abs", op("sub", get("center", "i", "x"), get("center", "j", "x")))),
        scene, geom)
    assert binary.data.shape == (n, n)
    ternary = eval_encoder(encoder_to_dsl("between"), scene, geom)
    assert ternary.data.shape == (n, n, n)


def test_ternary_chunking_matches_full_eval(scene, geom, monkeypatch):
    defn = encoder_to_dsl("between")
    monkeypatch.setattr(dsl, "CHUNK_ELEMS", 1 << 30)
    full = eval_encoder(defn, scene, geom)
    monkeypatch.setattr(dsl, "CHUNK_ELEMS", len(scene) * len(scene))  # one i-row per chunk
    chunked = eval_encoder(defn, scene, geom)
    assert np.array_equal(full.data, chunked.data)


def test_dot2_cross2_expand_to_arithmetic(scene, geom):
    dx = op("sub", get("center", "i", "x"), get("center", "j", "x"))
    dy = op("sub", get("center", "i", "y"), get("center", "j", "y"))
    sugar = op("dot2", dx, dy, dx, dy)
    expanded = op("add", op("mul", dx, dx), op("mul", dy, dy))
    a = eval_encoder(EncoderDefinition(relation="near", body=sugar), scene, geom)
    b = eval_encoder(EncoderDefinition(relation="near", body=expanded), scene, geom)
    assert np.array_equal(a.data, b.data)
    cross_self = eval_encoder(EncoderDefinition(
        relation="near", body=op("cross2", dx, dy, dx, dy)), scene, geom)
    assert np.all(cross_self.data == 0.0)


def test_definition_file_roundtrip(tmp_path):
    defn = encoder_to_dsl("above")
    path = tmp_path / "above.json"
    save_definition(defn, path)
    loaded = load_definition(path)
    assert loaded == defn
    raw = json.loads(path.read_text())
    assert raw["relation"] == "above"
    assert raw["metadata"] == "builtin"
    assert "body" in raw


@pytest.mark.parametrize("fault, expected", [
    ("missing", "cannot read {path}: "),
    ("directory", "cannot read {path}: "),
    ("not utf-8", "cannot read {path}: "),
    ("truncated", "{path}: invalid JSON at line 1 column 31: Expecting value"),
    ("nested", "{path}: JSON nested too deeply"),
    ("unknown relation", "{path}: unknown relation 'foo'; known relations: large, small, "),
])
def test_load_definition_raises_its_own_error(tmp_path, fault, expected):
    path = tmp_path / "above.json"
    if fault == "directory":
        path.mkdir()
    elif fault == "not utf-8":
        path.write_bytes(b'{"relation": "above\xff"}')
    elif fault == "truncated":
        path.write_text('{"relation": "above", "body": ')
    elif fault == "nested":
        path.write_text('{"relation": "above", "body": ' + "[" * 100_000)
    elif fault == "unknown relation":
        path.write_text('{"relation": "foo", "body": {"const": 1}}')
    with pytest.raises(DefinitionError) as info:
        load_definition(path)
    assert str(info.value).startswith(expected.format(path=path))


def test_digest_ignores_metadata():
    a = encoder_to_dsl("near")
    b = EncoderDefinition(relation="near", body=a.body, metadata="different")
    assert a.digest() == b.digest()
    c = EncoderDefinition(relation="far", body=a.body, metadata=a.metadata)
    assert a.digest() != c.digest()


def test_a_body_past_the_node_cap_joins_no_text():
    """A subtree repeated by reference doubles its joined text at each
    level. Past ``MAX_TREE_NODES`` the check joins none: 20 levels of
    ``t = add(t, t)`` fail the cap with its usual text and a traced peak
    under 8 MB (joining the texts peaked at 129 MB), and an op's extra
    key that is not JSON still faults before the cap does."""
    body = const(1.0)
    for _ in range(20):
        body = op("add", body, body)
    tracemalloc.start()
    try:
        with pytest.raises(DefinitionError) as raised:
            compile_definition(EncoderDefinition(relation="large", body=body))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(raised.value) == "body: tree has 2097151 nodes, cap is 512"
    assert peak < 8e6
    noted = op("add", const(1.0), {**body, "note": {1, 2}})
    with pytest.raises(DefinitionError, match=r"^body\.args\[1\]: node is not JSON: "):
        compile_definition(EncoderDefinition(relation="large", body=noted))
