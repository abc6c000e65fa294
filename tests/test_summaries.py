"""Per-subtree summaries against the whole-tree paths they replaced.

The check makes one interned summary per distinct subtree, and mutation
builds a child's new path from its base's summaries by the same node rule,
outside the intern table. On random bodies, valid and not, with shared
subtrees, extra keys, int, signed-zero and subnormal constants:

- the canonical JSON joined from subtree texts, and its digest, equal
  ``json.dumps`` of the whole definition (``oracles.reference_canonical_json``);
- the summary descent picks the same (path, node) as the list of every node
  mutation used to build (``oracles.all_nodes``), for every count and every k;
- every summary a mutated child is built with equals that of a fresh full
  check, field by field, and a child pushed past a cap raises the reference
  validator's fault.

A full search then shows that each candidate costs its changed path: no node
is summarized twice, a draw joins no text, and a candidate's digest joins its
root's text in one pass. Last, the intern table: a reloaded registry shares
the builtins' summaries, the table lets go of dropped bodies, racing checks
agree on one summary, and mutation's new paths stay out of it.
"""

import gc
import json
import sys
import threading
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
from sceneground.registry import EncoderRegistry, load_registry, save_registry

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


def _assert_texts_are_json_dumps(defn, compared):
    """Every node text under the definition's root, read root first (so a
    read may join below a kept text), is ``json.dumps(node,
    sort_keys=True)``. ``compared`` maps the ids of the summaries already
    compared to the summaries, held so ids stay unique."""
    stack = [compile_definition(defn)]
    while stack:
        summary = stack.pop()
        if id(summary) not in compared:
            compared[id(summary)] = summary
            assert summary.text == json.dumps(summary.node, sort_keys=True)
            stack.extend(reversed(summary.args))


def _mutant_chains(base, n, length=4):
    """``n`` seeded mutants of ``base`` in chains of ``length``: each draws
    from the one before, and each chain's first from ``base``. Each chain is
    listed newest first, so the first text read joins across its chain's
    generations of path nodes that keep none."""
    chains = []
    for seed in range(n):
        if seed % length == 0:
            chains.append([])
        parent = chains[-1][0] if chains[-1] else base
        chains[-1].insert(0, mutation.mutate_definition(parent, seed))
    return [d for chain in chains for d in chain]


def test_joined_texts_equal_json_dumps_on_builtins_and_their_mutants():
    compared = {}
    for defn in builtin_definitions().values():
        _assert_texts_are_json_dumps(defn, compared)
        for mutant in _mutant_chains(defn, 1000):
            _assert_texts_are_json_dumps(mutant, compared)


def _with_extra_keys(node):
    """``node`` with two extra keys on every op node, one sorting before
    ``args`` and one after ``op``."""
    if "op" not in node:
        return node
    return {"a": [1, {"z": None, "b": 2.5}], **node,
            "args": [_with_extra_keys(a) for a in node["args"]], "zz": "x"}


def test_joined_texts_equal_json_dumps_on_mutants_of_a_skeleton_with_extra_keys():
    compared = {}
    for name in ("at_the_corner", "between"):
        skeleton = EncoderDefinition(relation=name,
                                     body=_with_extra_keys(encoder_to_dsl(name).body))
        _assert_texts_are_json_dumps(skeleton, compared)
        for mutant in _mutant_chains(skeleton, 200):
            _assert_texts_are_json_dumps(mutant, compared)


def test_a_summary_past_the_node_cap_keeps_no_text():
    """An op summary past ``MAX_TREE_NODES`` reads None and keeps nothing;
    one under it joins its text across a subtree that keeps none."""
    chain = [dsl.summarize_node(get("volume", "i"), (), 1)]
    for _ in range(9):
        below = chain[-1]
        chain.append(dsl.summarize_node(op("add", below.node, below.node), (below, below), 1))
    assert [s.size for s in chain[-2:]] == [511, 1023]
    assert chain[-1].text is None and chain[-1]._text is None
    assert chain[-2].text == json.dumps(chain[-2].node, sort_keys=True)
    assert chain[-3]._text is None


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
            assert got_path == path and trail[-1].text == json.dumps(node, sort_keys=True)
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
        assert json.dumps(got.node, sort_keys=True) == json.dumps(want.node, sort_keys=True)
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
    """A full-budget search. No node object is summarized twice: a draw
    summarizes (so checks) only the nodes its mutation made, and joins no
    text. A candidate's digest joins its root's text in one pass, and no
    other node the search made keeps a text. The pick visits one node per
    level down to the node it changes."""
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

    def counting_op_text(summary):
        events.append(("joined", summary.node))
        return real_op_text(summary)

    attempts: list[tuple[EncoderDefinition, tuple, int, int, EncoderDefinition | None]] = []
    real_apply = mutation._apply

    def recording_apply(base, change, metadata):
        start, child = len(events), None
        try:
            child = real_apply(base, change, metadata)
            return child
        finally:
            attempts.append((base, change, start, len(events), child))

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

    # every summary was made by a draw's check, none before the search, and
    # a draw joined no text
    summarized = [id(n) for kind, n in events if kind == "summarized"]
    assert sum(end - start for _, _, start, end, _ in attempts) == len(summarized)
    assert len(set(summarized)) == len(summarized)
    assert all(kind == "summarized" for _, _, start, end, _ in attempts
               for kind, _ in events[start:end])
    # each join is one pass at a candidate's root, and every candidate scored was joined
    joined = [id(n) for kind, n in events if kind == "joined"]
    assert len(set(joined)) == len(joined)
    roots = {id(child.body) for *_, child in attempts if child is not None}
    assert set(joined) <= roots
    assert {entry["definition_hash"] for entry in log} <= {
        child.digest()[:12] for *_, child in attempts if child is not None}
    for base, (path, *_), start, end, child in attempts:
        base_objects = {id(n) for _, n in all_nodes(base.body)}
        made = {id(n) for kind, n in events[start:end] if kind == "summarized"}
        # only new objects: the copies of the path's nodes and what replaced the node
        assert not made & (base_objects | builtin_objects)
        assert len(made) <= len(path) + 2  # a wrap adds two nodes: exp(neg(target))
        if child is not None:  # of the op nodes the draw made, only a root keeps a text
            root = child.__dict__["_root"]
            kept = {id(s.node) for s in mutation._preorder(root)
                    if s is not root and s.entry[0] == "op" and s._text is not None}
            assert not kept & made
    for visited, depth, height in descents:
        assert visited == depth + 1 <= height


def _summaries(defn):
    return {id(s): s for s in mutation._preorder(compile_definition(defn))}


def test_a_reloaded_registry_shares_the_builtins_summaries(tmp_path):
    """Every active root of a registry file saved from the builtins is the
    builtin's own root summary, so a loaded ``between`` has the builtin's
    49 summaries, one per distinct subtree."""
    path = tmp_path / "registry.json"
    save_registry(EncoderRegistry(), path)
    loaded = load_registry(path)
    for name, builtin in builtin_definitions().items():
        defn = loaded.active_definition(name)
        assert defn.body is not builtin.body
        assert compile_definition(defn) is compile_definition(builtin)
    between = _summaries(loaded.active_definition("between"))
    assert len(between) == len({s.text for s in between.values()}) == 49


def test_the_intern_table_lets_go_of_dropped_bodies():
    """200 checked bodies that no builtin shares grow the table, and once
    they are dropped and collected it is back to its prior size."""
    gc.collect()
    before = len(dsl._INTERNED)
    bodies = [EncoderDefinition(relation="near", body=op("mul", const(k + 0.25),
                                                         op("neg", get("volume", "j"))))
              for k in range(200)]
    for defn in bodies:
        compile_definition(defn)
    assert len(dsl._INTERNED) >= before + 400  # a const and a mul each
    del bodies, defn
    gc.collect()
    assert len(dsl._INTERNED) == before


def test_racing_checks_of_one_body_get_one_summary_per_subtree():
    """Four threads (more than the cores) check their own decoded copies of
    one new body (a mutant of ``between``, which the table lacks) at once,
    switching often: every thread gets the same root object, and so the
    same summary of every subtree."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(40):
            text = json.dumps(
                mutation.mutate_definition(encoder_to_dsl("between"), seed).to_dict())
            barrier = threading.Barrier(4, timeout=10)
            roots = [None] * 4

            def check(k, text=text, barrier=barrier, roots=roots):
                defn = dsl.definition_from_dict(json.loads(text))
                barrier.wait()
                roots[k] = compile_definition(defn)

            threads = [threading.Thread(target=check, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
                assert not thread.is_alive()
            assert roots[0] is not None and all(root is roots[0] for root in roots), seed
    finally:
        sys.setswitchinterval(interval)


def test_a_mutated_childs_new_path_stays_out_of_the_table():
    """A child's summaries off its new path are its base's, which the
    table holds; the ones mutation made for its new path are not in it."""
    base = encoder_to_dsl("between")
    interned = {id(s) for s in dsl._INTERNED.values()}
    assert _summaries(base).keys() <= interned
    for seed in range(40):
        child = mutation.mutate_definition(base, seed)
        made = _summaries(child).keys() - _summaries(base).keys() - {
            id(s) for s in mutation._graft_sources(7)}
        assert made, seed
        assert not made & {id(s) for s in dsl._INTERNED.values()}, seed
