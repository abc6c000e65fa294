"""The merged check-and-compile pass against the reference validator.

``oracles.reference_validate`` is the separate validation walk the pass
replaced. On JSON-like trees, valid and malformed, the pass must raise the
same DefinitionError text wherever the reference does, a DefinitionError
where the reference escapes as TypeError, and accept exactly what the
reference accepts; an accepted tree must evaluate, dense and gathered, to
the reference tree walk's values bit for bit. No candidate a search draws
is walked by the pass: mutation builds it checked.
"""

import itertools
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import sceneground.dsl as dsl
from sceneground.dsl import (
    DefinitionError,
    EncoderDefinition,
    compile_definition,
    const,
    eval_encoder,
    eval_encoder_at,
    get,
    op,
)
from sceneground.expression import relation_arity
from sceneground.optimizer import (
    MutationSource,
    OptimizerConfig,
    TestSuite,
    optimize_encoder,
    run_test_suite,
)
from sceneground.registry import EncoderRegistry
from sceneground.scene import precompute_geometry

import oracles
from helpers import build_margin_suite, random_scene
from oracles import reference_validate, tree_walk_eval

pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

RELATIONS = {1: "large", 2: "near", 3: "between"}
SCENE = random_scene(np.random.default_rng(31), 5, "fuzz")
GEOM = precompute_geometry(SCENE)

GET_FIELDS = ["center", "size", "bottom", "top", "volume"]
AGG_NAMES = ["mean_diagonal", "floor_z", "hull_min", "hull_max", "centroid", "volume_min",
             "volume_max", "center_min", "center_max"]
AXES = ["x", "y", "z"]
JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 3), st.floats(), st.text(max_size=3),
    st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
NUMBERS = st.one_of(
    st.floats(-1e3, 1e3), st.floats(), st.integers(-2**70, 2**70),
    st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, -2**63, -2**63 - 1, True, -0.0]),
)


def _valid_leaf(objs):
    get_node = st.builds(lambda f, o, a: get(f, o, a if oracles._GET_FIELDS[f] else None),
                         st.sampled_from(GET_FIELDS), st.sampled_from(objs),
                         st.sampled_from(AXES))
    agg_node = st.builds(lambda n, a: {"agg": n, **({"axis": a} if oracles._AGG_FIELDS[n] else {})},
                         st.sampled_from(AGG_NAMES), st.sampled_from(["x", "y"]))
    return st.one_of(st.builds(const, st.floats(-5, 5)), get_node, agg_node)


def _valid_op(children):
    return st.sampled_from(sorted(oracles.OPS)).flatmap(
        lambda name: st.lists(children, min_size=oracles.OPS[name], max_size=oracles.OPS[name])
        .map(lambda args: {"op": name, "args": args}))


@st.composite
def _bad_node(draw):
    """A node that is usually malformed: a wrong type, an unknown or
    non-string name, a wrong argument count or a bad axis or constant."""
    wrong = st.one_of(JUNK, st.text(max_size=3))
    kind = draw(st.sampled_from(["junk", "kindless", "const", "get", "agg", "op"]))
    if kind == "junk":
        return draw(JUNK)
    if kind == "kindless":
        return {"obj": "i", "args": []}
    if kind == "const":
        return {"const": draw(st.one_of(NUMBERS, wrong))}
    if kind == "op":
        args = draw(st.one_of(st.lists(st.builds(const, st.floats(-5, 5)), max_size=5), JUNK))
        return {"op": draw(st.one_of(st.sampled_from(sorted(oracles.OPS)), wrong)), "args": args}
    names = GET_FIELDS if kind == "get" else AGG_NAMES
    node = {kind: draw(st.one_of(st.sampled_from(names), wrong))}
    if kind == "get":
        node["obj"] = draw(st.one_of(st.sampled_from(["i", "j", "k"]), wrong))
    if draw(st.booleans()):
        node["axis"] = draw(st.one_of(st.sampled_from(AXES), wrong))
    return node


@st.composite
def trees(draw):
    """(relation, body): a valid random tree with zero to three faults planted
    at random positions, sometimes deepened, widened or sharing a subtree."""
    arity = draw(st.integers(1, 3))
    objs = ["i", "j", "k"][:arity]
    body = draw(st.recursive(_valid_leaf(objs), _valid_op, max_leaves=10))
    for _ in range(draw(st.integers(0, 3))):
        body = _plant(body, draw(_bad_node()), draw(st.integers(0, 10**6)))
    shape = draw(st.sampled_from(["plain", "plain", "deep", "wide", "shared"]))
    if shape == "deep":  # a chain of neg: past the depth cap from about 64 on
        body = _chain(body, draw(st.integers(50, 70)))
    elif shape == "wide":  # doubling through one shared object: 2^k times the nodes
        body = _doubled(body, draw(st.integers(1, 9)))
    elif shape == "shared":
        body = _shared_deeper(body, draw(st.integers(1, 70)))
    return RELATIONS[arity], body


def _plant(body, bad, where):
    """Copy of ``body`` with the node at a pseudo-random position replaced."""
    if not isinstance(body, dict) or not isinstance(body.get("args"), list) or where % 3 == 0:
        return bad
    args = list(body["args"])
    if args:
        k = where % len(args)
        args[k] = _plant(args[k], bad, where // 3)
    return {**body, "args": args}


def _chain(node, n):
    for _ in range(n):
        node = op("neg", node)
    return node


def _doubled(node, n):
    for _ in range(n):
        node = op("add", node, node)
    return node


def _shared_deeper(node, n):
    """``node`` twice, the second time ``n`` levels deeper: one object."""
    return op("max", node, _chain(node, n))


def _expected(defn):
    try:
        reference_validate(defn)
    except DefinitionError as exc:
        return str(exc)
    except TypeError:
        return TypeError
    return None


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(trees())
@example(("large", _chain(const(1.0), 63)))  # depth 64: accepted
@example(("large", _chain(const(1.0), 64)))  # depth 65
@example(("near", _doubled(get("center", "i", "x"), 8)))  # 511 nodes
@example(("near", _doubled(get("center", "i", "x"), 9)))  # 1023 nodes
@example(("between", op("add", {"get": []}, {"op": {}, "args": []})))  # two faults: first wins
@example(("between", op("add", op("neg", {"agg": ["x"]}), {"const": True})))
@example(("near", op("sub", get("size", "i", "x"), {"get": "size", "obj": "k", "axis": "x"})))
@example(("large", {"op": "dot2", "args": [const(1.0)] * 3}))
@example(("large", _shared_deeper(_chain(const(2.0), 3), 60)))  # depth 64: accepted
@example(("large", _shared_deeper(_chain(const(2.0), 3), 61)))  # one object, second time too deep
def test_pass_matches_reference_validator_and_tree_walk(case):
    relation, body = case
    defn = EncoderDefinition(relation=relation, body=body)
    expected = _expected(defn)
    try:
        compile_definition(defn)
        got = None
    except DefinitionError as exc:
        got = str(exc)
    if expected is TypeError:
        assert got is not None
        return
    assert got == expected
    if got is not None:
        return
    reference = tree_walk_eval(defn, SCENE, GEOM).data
    dense = eval_encoder(defn, SCENE, GEOM).data
    assert dense.tobytes() == reference.tobytes()
    points = itertools.product(range(len(SCENE)), repeat=relation_arity(relation))
    index = tuple(np.array(t) for t in zip(*points))
    gathered = eval_encoder_at(defn, GEOM, index)
    assert gathered.tobytes() == reference[index].tobytes()


@pytest.mark.parametrize("extra, where", [
    ({"note": {1, 2}}, "body.args[0].args[0]"),  # a set-valued extra
    ({5: 1}, "body.args[0].args[0]"),  # a key that is not a string
], ids=["set_extra", "non_string_key"])
def test_nodes_json_refuses_are_definition_errors(extra, where):
    """A node json.dumps refuses has no text, so the check rejects it at its
    path, after the node's own rules: an unknown accessor still wins."""
    odd = {"get": "center", "obj": "j", "axis": "x", **extra}
    body = op("add", op("mul", odd, const(1.0)), get("center", "i", "x"))
    with pytest.raises(DefinitionError, match=rf"^{re.escape(where)}: node is not JSON"):
        compile_definition(EncoderDefinition(relation="near", body=body))
    bad = op("add", op("mul", {**odd, "get": "colour"}, const(1.0)), get("center", "i", "x"))
    with pytest.raises(DefinitionError, match=rf"^{re.escape(where)}: unknown accessor"):
        compile_definition(EncoderDefinition(relation="near", body=bad))


def test_mixed_number_types_evaluate_as_the_tree_walk():
    """``1`` and ``1.0`` have different JSON, so they are two DAG constants
    of one value, while two equal accessor objects are one DAG node; all
    evaluate, dense and gathered, to the tree walk's values bit for bit."""
    first, twin = get("center", "j", "x"), get("center", "j", "x")
    body = op("add", op("mul", first, const(1.0)), op("sub", op("mul", first, {"const": 1}), twin))
    for relation in ("near", "between"):
        defn = EncoderDefinition(relation=relation, body=body)
        nodes = dsl._shared_dag((compile_definition(defn),))[0]
        assert [n for n in nodes if n[0] == "const"] == [("const", 1.0)] * 2
        assert sum(n[0] == "get" for n in nodes) == 1
        reference = tree_walk_eval(defn, SCENE, GEOM).data
        assert eval_encoder(defn, SCENE, GEOM).data.tobytes() == reference.tobytes()
        points = itertools.product(range(len(SCENE)), repeat=relation_arity(relation))
        index = tuple(np.array(t) for t in zip(*points))
        gathered = eval_encoder_at(defn, GEOM, index)
        assert gathered.tobytes() == reference[index].tobytes()
        assert defn.digest() == oracles.reference_digest(defn)


def test_each_candidate_is_walked_once(monkeypatch):
    """Mutation builds each child checked, so in a full-budget search no
    drawn child passes through the check pass, and scoring and accepting
    the winner walk nothing either."""
    walked = []
    real = dsl._check_and_compile

    def counting(body, rank):
        walked.append(body)
        return real(body, rank)

    monkeypatch.setattr(dsl, "_check_and_compile", counting)
    drawn = []

    class RecordingSource(MutationSource):
        def draw(self, relation, **kwargs):
            drawn.append(super().draw(relation, **kwargs))
            return drawn[-1]

    suite = build_margin_suite("between", np.random.default_rng(8), n_cases=12)
    # a mirrored case: no candidate passes all, so the search spends its budget
    first = suite.cases[0]
    mirrored = replace(first, target=first.distractor, distractor=first.target)
    suite = TestSuite(relation="between", cases=suite.cases + (mirrored,), scenes=suite.scenes)
    registry = EncoderRegistry()
    log = []
    winner, _ = optimize_encoder("between", suite, RecordingSource(), registry,
                                 OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=4), log=log)
    assert len(drawn) == len(log) == 15
    # every candidate was compiled as it was built
    for defn in drawn:
        compile_definition(defn)
    run_test_suite(winner, suite)
    registry.accept(winner)
    assert walked == []
