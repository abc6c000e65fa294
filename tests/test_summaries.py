"""Per-subtree summaries against the whole-tree paths they replaced.

The check memoizes one summary per node object and reuses it wherever the
object occurs again, also in a mutated child that shares the subtree. On
random bodies, valid and not, with shared subtrees, extra keys, int,
signed-zero and subnormal constants:

- the canonical JSON joined from subtree texts, and its digest, equal
  ``json.dumps`` of the whole definition (``oracles.reference_canonical_json``);
- the summary descent picks the same (path, node) as the list of every node
  mutation used to build (``oracles.all_nodes``), for every count and every k;
- a check seeded with another body's summaries accepts exactly what an
  unseeded check and the reference validator accept, with the same messages,
  and builds the same DAG.

A full search then shows that each candidate costs its changed path: no node
is summarized twice and no node's text is built twice.
"""

import sys
import threading
from dataclasses import replace
from operator import attrgetter

import numpy as np
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

from helpers import build_margin_suite
from oracles import all_nodes, reference_canonical_json, reference_digest, reference_validate
from test_check_pass import RELATIONS, _bad_node, _chain, _doubled, _plant

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
            assert compile_definition(defn).summary.text


_COUNTS = {
    "size": lambda node: True,
    "consts": lambda node: "const" in node,
    "swaps": lambda node: isinstance(node.get("op"), str) and node["op"] in COMMUTATIVE_SWAPS,
}


@SETTINGS
@given(valid_bodies())
def test_descent_picks_what_the_node_list_picks(body):
    root = _compiled_or_reject(EncoderDefinition(relation="between", body=body)).summary
    listed = all_nodes(body)
    for name, counts in _COUNTS.items():
        oracle = [(path, node) for path, node in listed if counts(node)]
        assert getattr(root, name) == len(oracle)
        for k, (path, node) in enumerate(oracle):
            got_path, trail = mutation._descend(root, attrgetter(name), k)
            assert got_path == path and trail[-1].node is node
            assert len(trail) == len(path) + 1


def _compiled_or_reject(defn):
    """The compiled definition; a random valid tree can still pass the node cap."""
    try:
        return compile_definition(defn)
    except DefinitionError as exc:
        assert "cap is" in str(exc)
        reject()


def _summaries(root):
    return {id(s.node): s for s in mutation._preorder(root)}


@st.composite
def _children(draw):
    """(base relation, base body, child relation, child body): the child
    replaces one node of the base, keeps the rest as shared objects and may
    be of another arity."""
    base_arity = draw(st.integers(1, 3))
    base = draw(valid_bodies(("i", "j", "k")[:base_arity]))
    listed = all_nodes(base)
    path, target = listed[draw(st.integers(0, len(listed) - 1))]
    other = listed[draw(st.integers(0, len(listed) - 1))][1]
    new = draw(st.sampled_from(["leaf", "bad", "wrap", "deep", "wide", "other"]))
    if new == "leaf":
        node = draw(_leaf(("i", "j", "k")))
    elif new == "bad":
        node = draw(_bad_node())
    elif new == "wrap":
        node = op("exp", op("neg", target))
    elif new == "deep":  # the shared target, pushed past the depth cap or close to it
        node = _chain(target, draw(st.integers(50, 64)))
    elif new == "wide":  # the shared target, repeated past the node cap or close to it
        node = _doubled(target, draw(st.integers(4, 9)))
    else:  # another shared subtree
        node = op("max", other, target)
    child = mutation._replace_at(base, path, node)
    return RELATIONS[base_arity], base, RELATIONS[draw(st.integers(1, 3))], child


_SHARED = _chain(const(2.0), 3)
_READS_J = get("volume", "j")


@SETTINGS
@given(_children())
# one shared object: its deepest node at depth 64, then at 65
@example(("large", _SHARED, "large", op("max", const(1.0), _chain(_SHARED, 59))))
@example(("large", _SHARED, "large", op("max", const(1.0), _chain(_SHARED, 60))))
# summaries of a rank-2 body reused in a rank-1 body
@example(("near", op("add", _READS_J, const(1.0)), "large", op("neg", _READS_J)))
def test_seeded_check_accepts_what_the_full_check_accepts(case):
    base_relation, base_body, relation, body = case
    base = _compiled_or_reject(EncoderDefinition(relation=base_relation, body=base_body))
    seeded = EncoderDefinition(relation=relation, body=body)
    fresh = EncoderDefinition(relation=relation, body=body)
    got = _outcome(compile_definition, seeded, _summaries(base.summary))
    full = _outcome(compile_definition, fresh)
    reference = _outcome(reference_validate, fresh)
    if full[0] != "ok":
        assert got == full
        # where the reference validator escapes as TypeError, the check raises DefinitionError
        assert reference == full or (reference[0], full[0]) == ("TypeError", "DefinitionError")
        return
    assert reference[0] == "ok"
    assert got[0] == "ok"
    assert got[1].nodes == full[1].nodes and got[1].frees == full[1].frees
    assert seeded.canonical_json() == fresh.canonical_json() == reference_canonical_json(fresh)


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


def test_checks_racing_on_one_table_agree_with_separate_checks():
    """Threads check bodies that share subtree objects through one table, so
    they race on its summaries. Every result equals that of a check on its
    own."""
    bodies = [mutation.mutate_definition(encoder_to_dsl(relation), seed)
              for relation in ("near", "at_the_corner", "between") for seed in range(4)]
    expected = []
    for defn in bodies:
        alone = EncoderDefinition(relation=defn.relation, body=defn.body)
        expected.append((compile_definition(alone).nodes, reference_canonical_json(alone)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(4):
            racing = [EncoderDefinition(relation=d.relation, body=d.body) for d in bodies * 2]
            table: dict = {}
            got: list = [None] * len(racing)

            def check(k):
                got[k] = (compile_definition(racing[k], table).nodes, racing[k].digest())

            threads = [threading.Thread(target=check, args=(k,)) for k in range(len(racing))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            for (nodes, digest), defn, (want_nodes, want_json) in zip(got, racing,
                                                                     expected * 2):
                assert nodes == want_nodes
                assert digest == reference_digest(defn)
                assert defn.canonical_json() == want_json
    finally:
        sys.setswitchinterval(interval)
