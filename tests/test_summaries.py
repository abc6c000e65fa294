"""Per-subtree summaries against the whole-tree paths they replaced.

The check makes one summary per node object, and mutation builds a child's
new path from its base's summaries by the same node rule. On random bodies,
valid and not, with shared subtrees, extra keys, int, signed-zero and
subnormal constants:

- the canonical JSON joined from subtree texts, and its digest, equal
  ``json.dumps`` of the whole definition (``oracles.reference_canonical_json``);
- the summary descent picks the same (path, node) as the list of every node
  mutation used to build (``oracles.all_nodes``), for every count and every k;
- every summary a mutated child is built with equals that of a fresh full
  check, field by field, and a child pushed past a cap raises the reference
  validator's fault.

A full search then shows that each candidate costs its changed path: no node
is summarized twice and no node's text is built twice.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, reject, settings
from hypothesis import strategies as st

import sceneground.dsl as dsl
import sceneground.mutation as mutation
from sceneground.builtins import builtin_definitions, encoder_to_dsl
from sceneground.dsl import (
    COMMUTATIVE_SWAPS,
    DefinitionError,
    EncoderDefinition,
    agg,
    compile_definition,
    const,
    get,
    op,
)
from sceneground.optimizer import MutationSource, OptimizerConfig, TestSuite, optimize_encoder
from sceneground.registry import EncoderRegistry

from helpers import build_margin_suite, replace_at
from oracles import all_nodes, reference_canonical_json, reference_digest, reference_validate
from test_check_pass import RELATIONS, _bad_node, _chain, _doubled, _plant
from test_fastpaths import _hostile_bodies

SETTINGS = settings(max_examples=120, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])

CONSTANTS = st.one_of(
    st.floats(-5, 5), st.integers(-10, 10), st.integers(-2**63, 2**64 - 1),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, 1e300, 3]),
)
EXTRA_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(allow_nan=False),
              st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=5,
)
# a leaf's "args" is data the check ignores but the old node list walked,
# so leaves get every extra key but that one
LEAF_EXTRA_KEYS = st.sampled_from(["note", "aa", "zz", "é", "op", "axis_", "obj_"])


@st.composite
def _extras(draw, keys):
    return draw(st.dictionaries(keys, EXTRA_VALUES, max_size=2)) if draw(st.booleans()) else {}


@st.composite
def _leaf(draw, objs):
    kind = draw(st.sampled_from(["const", "const", "get", "agg"]))
    if kind == "const":
        node = {"const": draw(CONSTANTS)}
    elif kind == "get":
        field = draw(st.sampled_from(["center", "size", "bottom", "top", "volume"]))
        axis = draw(st.sampled_from(["x", "y", "z"])) if field in ("center", "size") else None
        node = get(field, draw(st.sampled_from(objs)), axis)
        if axis is None and draw(st.booleans()):
            node["axis"] = None
    else:
        name = draw(st.sampled_from(["mean_diagonal", "floor_z", "hull_min", "centroid",
                                     "center_max", "volume_min"]))
        axis = {"hull_min": "x", "centroid": "y", "center_max": "z"}.get(name)
        node = agg(name, axis)
    extras = draw(_extras(LEAF_EXTRA_KEYS))
    if "op" in extras and draw(st.booleans()):
        extras["op"] = draw(st.sampled_from(sorted(COMMUTATIVE_SWAPS)))
    return {**node, **extras}


@st.composite
def valid_bodies(draw, objs=("i", "j", "k")):
    """A valid tree whose nodes carry extra keys now and then and whose
    subtrees are now and then one shared object."""
    built: list[dict] = []

    def node(level):
        if built and draw(st.integers(0, 4)) == 0:
            return draw(st.sampled_from(built))  # share an object built earlier
        if level >= 5 or draw(st.integers(0, 2)) == 0:
            out = draw(_leaf(objs))
        else:
            name = draw(st.sampled_from(sorted(dsl.OPS)))
            out = {"op": name, "args": [node(level + 1) for _ in range(dsl.OPS[name])]}
            out.update(draw(_extras(st.sampled_from(["note", "zz", "aa"]))))
        built.append(out)
        return out

    return node(0)


@st.composite
def bodies(draw):
    """(relation, body): valid, or with faults planted, made too deep or made
    too large; sometimes with a key that is not a string."""
    arity = draw(st.integers(1, 3))
    body = draw(valid_bodies(("i", "j", "k")[:arity]))
    shape = draw(st.sampled_from(["valid", "valid", "faulty", "deep", "wide", "int_key"]))
    if shape == "faulty":
        body = _plant(body, draw(_bad_node()), draw(st.integers(0, 10**6)))
    elif shape == "deep":
        body = _chain(body, draw(st.integers(55, 66)))
    elif shape == "wide":
        body = _doubled(body, draw(st.integers(5, 9)))
    elif shape == "int_key":
        body = {**body, 7: "seven"}
    return RELATIONS[arity], body


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except (DefinitionError, TypeError, ValueError) as exc:
        return type(exc).__name__, str(exc)


@SETTINGS
@given(bodies())
@example(("large", {"const": -0.0}))
@example(("large", {"const": 2**64 - 1, "note": [1, {"b": 2.5, "a": None}]}))
@example(("near", op("add", {"const": 5e-324}, {"get": "volume", "obj": "j", "axis": None})))
@example(("large", {"op": "neg", "args": [const(1.0)], 3: "x"}))
def test_joined_canonical_json_and_digest_equal_json_dumps(case):
    relation, body = case
    defn = EncoderDefinition(relation=relation, body=body)
    checked = _outcome(compile_definition, defn)[0] == "ok"
    expected = _outcome(reference_canonical_json, defn)
    assert _outcome(defn.canonical_json) == expected
    if expected[0] == "ok":
        assert defn.digest() == reference_digest(defn)
        if checked:  # the text came from the summaries, not from json.dumps
            assert compile_definition(defn).text


_COUNTS = {  # the node list's count, and the descent's
    "size": lambda node: True,
    "consts": lambda node: "const" in node,
    "swaps": lambda node: isinstance(node.get("op"), str) and node["op"] in COMMUTATIVE_SWAPS,
}


_DESCENT_COUNTS = {"size": mutation._NODES, "consts": mutation._CONSTS,
                   "swaps": mutation._SWAPS}


@SETTINGS
@given(valid_bodies())
def test_descent_picks_what_the_node_list_picks(body):
    root = _compiled_or_reject(EncoderDefinition(relation="between", body=body))
    listed = all_nodes(body)
    for name, counts in _COUNTS.items():
        oracle = [(path, node) for path, node in listed if counts(node)]
        assert getattr(root, name) == len(oracle)
        for k, (path, node) in enumerate(oracle):
            got_path, trail = mutation._descend(root, _DESCENT_COUNTS[name], k)
            assert got_path == path and trail[-1].node is node
            assert len(trail) == len(path) + 1


def _compiled_or_reject(defn):
    """The checked body's root summary; a random valid tree can still pass the node cap."""
    try:
        return compile_definition(defn)
    except DefinitionError as exc:
        assert "cap is" in str(exc)
        reject()


_FIELDS = ("text", "entry", "size", "height", "objs", "consts", "swaps")


def _assert_built_as_checked(child):
    """Every summary ``child`` was built with equals a fresh full check's,
    field by field, and its digest is the reference's."""
    built = child.__dict__["_root"]  # stored as mutation built the child
    fresh = compile_definition(EncoderDefinition(relation=child.relation, body=child.body))
    pairs = list(zip(mutation._preorder(built), mutation._preorder(fresh)))
    assert len(pairs) == fresh.size
    for got, want in pairs:
        assert got.node is want.node
        assert [getattr(got, f) for f in _FIELDS] == [getattr(want, f) for f in _FIELDS]
    assert child.digest() == reference_digest(child)


@SETTINGS
@given(st.integers(1, 3).flatmap(lambda arity: st.tuples(
    st.just(arity), valid_bodies(("i", "j", "k")[:arity]))), st.integers(0, 2**32 - 1))
def test_built_child_equals_a_fresh_check_on_random_bodies(case, seed):
    arity, body = case
    base = EncoderDefinition(relation=RELATIONS[arity], body=body)
    _compiled_or_reject(base)
    _assert_built_as_checked(mutation.mutate_definition(base, seed))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_built_child_equals_a_fresh_check_on_chains_hostile_bodies_and_grafts(arity):
    relation = RELATIONS[arity]
    rng = np.random.default_rng(70 + arity)
    defn = encoder_to_dsl(relation)
    for _ in range(60):  # a mutation chain
        defn = mutation.mutate_definition(defn, int(rng.integers(2**31)))
        _assert_built_as_checked(defn)
    for body in _hostile_bodies(arity):
        base = EncoderDefinition(relation=relation, body=body)
        for seed in range(10):
            _assert_built_as_checked(mutation.mutate_definition(base, seed))
    for base in [encoder_to_dsl(relation), defn]:
        root = compile_definition(base)
        for _ in range(20):
            change = mutation._graft_subtree(root, rng, (1 << arity) - 1)
            got = _outcome(mutation._apply, base, change, "graft")
            if got[0] == "ok":
                _assert_built_as_checked(got[1])
            else:  # a graft onto a chain grown near a cap may pass it
                path, _, source = change
                fresh = EncoderDefinition(relation=relation,
                                          body=replace_at(base.body, path, source.node))
                assert got == _outcome(compile_definition, fresh)


def _abs_chain(n):
    node = get("volume", "i")
    for _ in range(n):
        node = op("abs", node)
    return node


_HUGE = {"const": 1.7e308}
_READS_J = compile_definition(
    EncoderDefinition(relation="near", body=op("neg", get("volume", "j")))).args[0]


@pytest.mark.parametrize("body, k, replace_with", [
    (_abs_chain(62), 62, "abs"),  # the leaf, wrapped: depth 64
    (_abs_chain(63), 63, "abs"),  # depth 65
    (_abs_chain(63), 0, "abs"),  # the root, wrapped: depth 65
    (_doubled(get("volume", "i"), 8), 5, "abs"),  # 512 nodes
    (op("abs", _doubled(get("volume", "i"), 8)), 5, "abs"),  # 513 nodes
    (_doubled(get("volume", "i"), 8), 3, "scale"),  # 513 nodes
    (_HUGE, 0, "overflow"),  # a scaled constant past the float range
    (op("neg", op("add", const(1.0), _HUGE)), 3, "overflow"),
    (op("neg", const(1.0)), 1, "reads_j"),  # an object the relation has not
], ids=["depth_64", "depth_65", "depth_65_root", "nodes_512", "nodes_513", "nodes_513_scale",
        "overflow_root", "overflow_deep", "objects"])
def test_built_child_past_a_cap_raises_the_reference_fault(body, k, replace_with):
    base = EncoderDefinition(relation="large", body=body)
    root = compile_definition(base)
    path, trail = mutation._descend(root, mutation._NODES, k)
    target = trail[-1]
    recipe = {
        "abs": mutation._op("abs", target),
        "scale": mutation._op("mul", target, (const(0.5), ())),
        "overflow": (const(target.node.get("const", 1.0) * 2), ()),
        "reads_j": _READS_J,
    }[replace_with]
    node = recipe.node if replace_with == "reads_j" else recipe[0]
    expected = EncoderDefinition(relation="large", body=replace_at(body, path, node))
    reference = _outcome(reference_validate, expected)
    got = _outcome(mutation._apply, base, (path, trail, recipe), "capped")
    if reference[0] == "ok":
        assert got[0] == "ok"
        _assert_built_as_checked(got[1])
    else:
        assert (got[0], got[1]) == reference


def test_each_candidate_costs_its_changed_path(monkeypatch):
    """A full-budget search. No node object is summarized twice and no
    node's text is built twice: a draw summarizes (so checks and
    serializes) only the nodes its mutation made. The pick visits one node
    per level down to the node it changes."""
    suite = build_margin_suite("between", np.random.default_rng(8), n_cases=12)
    first = suite.cases[0]
    mirrored = replace(first, target=first.distractor, distractor=first.target)
    suite = TestSuite(relation="between", cases=suite.cases + (mirrored,), scenes=suite.scenes)
    pool = {id(s.node) for s in mutation._graft_sources(7)}
    builtin_objects = {id(n) for d in builtin_definitions().values() for _, n in all_nodes(d.body)}
    assert pool <= builtin_objects

    events: list[tuple[str, dict]] = []  # holds the objects, so ids stay unique
    real_summary = dsl.NodeSummary
    real_op_text = dsl._op_text

    class CountingSummary(real_summary):
        __slots__ = ()

        def __init__(self, node, *args):
            events.append(("summarized", node))
            super().__init__(node, *args)

    def counting_op_text(node, *args):
        events.append(("serialized", node))
        return real_op_text(node, *args)

    attempts: list[tuple[EncoderDefinition, tuple, int, int]] = []
    real_apply = mutation._apply

    def recording_apply(base, change, metadata):
        start = len(events)
        try:
            return real_apply(base, change, metadata)
        finally:
            attempts.append((base, change, start, len(events)))

    descents: list[tuple[int, int, int]] = []
    real_descend = mutation._descend

    def recording_descend(root, count, k):
        path, trail = real_descend(root, count, k)
        descents.append((len(trail), len(path), root.height))
        return path, trail

    monkeypatch.setattr(dsl, "NodeSummary", CountingSummary)
    monkeypatch.setattr(dsl, "_op_text", counting_op_text)
    monkeypatch.setattr(mutation, "_apply", recording_apply)
    monkeypatch.setattr(mutation, "_descend", recording_descend)
    log: list[dict] = []
    optimize_encoder("between", suite, MutationSource(), EncoderRegistry(),
                     OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=4), log=log)
    assert len(log) == 15 and len(attempts) >= 15

    # every summary and text was made by a draw's check, none before the search
    assert sum(end - start for _, _, start, end in attempts) == len(events)
    summarized = [id(n) for kind, n in events if kind == "summarized"]
    assert len(set(summarized)) == len(summarized)
    serialized = [id(n) for kind, n in events if kind == "serialized"]
    assert len(set(serialized)) == len(serialized)
    made_ops = [id(n) for kind, n in events if kind == "summarized" and "op" in n]
    assert sorted(serialized) == sorted(made_ops)
    for base, (path, *_), start, end in attempts:
        base_objects = {id(n) for _, n in all_nodes(base.body)}
        made = {id(n) for kind, n in events[start:end] if kind == "summarized"}
        # only new objects: the copies of the path's nodes and what replaced the node
        assert not made & (base_objects | builtin_objects)
        assert len(made) <= len(path) + 2  # a wrap adds two nodes: exp(neg(target))
        assert {id(n) for kind, n in events[start:end] if kind == "serialized"} <= made
    for visited, depth, height in descents:
        assert visited == depth + 1 <= height
