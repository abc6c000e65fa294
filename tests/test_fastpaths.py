"""Fast paths against their reference paths.

The DAG evaluator, the gathered suite scorer and path-copying mutation must
reproduce the tree walk, the dense scorer and deep-copying exactly.
"""

import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import sceneground.optimizer as optimizer_module
from sceneground.builtins import builtin_definitions, encoder_to_dsl
from sceneground.dsl import (
    EncoderDefinition,
    compile_definition,
    const,
    eval_encoder,
    eval_encoder_at,
    get,
    op,
)
from sceneground.expression import ALL_RELATIONS, relation_arity
from sceneground.mutation import _graft_pool, mutate_definition
from sceneground.optimizer import MutationSource, OptimizerConfig, TestSuite, optimize_encoder
from sceneground.registry import EncoderRegistry
from sceneground.scene import precompute_geometry

from helpers import build_margin_suite, constant_perturbed, random_scene
from oracles import dense_run_test_suite, tree_walk_eval

RELATION_OF_ARITY = {1: "large", 2: "near", 3: "between"}

# the hostile bodies overflow on purpose
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")


def _mutation_chain(relation, rng, steps=8):
    defn = encoder_to_dsl(relation)
    chain = []
    for _ in range(steps):
        defn = mutate_definition(defn, int(rng.integers(2**31)))
        chain.append(defn)
    return chain


def _hostile_bodies(arity):
    """Bodies whose features hold +inf, -inf, nan and near-zero divisions."""
    objs = "ijk"[:arity]
    # exp clips at e^50, so 17 factors overflow to +inf
    blowup = op("exp", op("add", get("center", objs[-1], "x"), const(100.0)))
    huge = blowup
    for _ in range(16):
        huge = op("mul", huge, blowup)
    tiny = op("sub", get("size", objs[0], "x"), get("size", objs[-1], "x"))
    return [
        huge,
        op("neg", huge),
        op("sub", huge, huge),
        op("div", get("volume", objs[0]), tiny),
        op("div", const(1.0), op("sub", get("top", objs[0]), get("top", objs[0]))),
        op("cross2", tiny, huge, get("center", objs[0], "y"), op("neg", huge)),
    ]


def _definitions_of_arity(arity, rng):
    relation = RELATION_OF_ARITY[arity]
    defns = [d for d in builtin_definitions().values() if relation_arity(d.relation) == arity]
    defns += _mutation_chain(relation, rng)
    defns += [EncoderDefinition(relation=relation, body=b) for b in _hostile_bodies(arity)]
    return defns


@pytest.mark.parametrize("n", [1, 2, 9])
def test_dense_dag_matches_tree_walk_on_every_builtin(n):
    scene = random_scene(np.random.default_rng(n), n, "dag")
    geom = precompute_geometry(scene)
    for relation in ALL_RELATIONS:
        defn = encoder_to_dsl(relation)
        fast = eval_encoder(defn, scene, geom).data
        assert np.array_equal(fast, tree_walk_eval(defn, scene, geom).data), relation
        assert fast.flags.c_contiguous and not fast.flags.writeable


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_dense_dag_matches_tree_walk_on_mutation_chains(arity):
    rng = np.random.default_rng(10 + arity)
    scene = random_scene(rng, 7, "chain")
    geom = precompute_geometry(scene)
    for defn in _definitions_of_arity(arity, rng):
        expected = tree_walk_eval(defn, scene, geom).data
        assert np.array_equal(eval_encoder(defn, scene, geom).data, expected)
        if arity == 3:  # one i-row per chunk
            chunked = eval_encoder(defn, scene, geom, chunk_elems=len(scene) ** 2)
            assert np.array_equal(chunked.data, expected)


def test_repeated_subtrees_compile_to_one_node():
    compiled = compile_definition(encoder_to_dsl("between"))
    assert len(compiled.nodes) == len(set(compiled.nodes)) < 100
    assert compiled.nodes[-1][0] == "op"
    # children come before parents
    for pos, node in enumerate(compiled.nodes):
        if node[0] == "op":
            assert all(child < pos for child in node[2])
    # signed zeros stay distinct constants
    body = op("add", const(0.0), const(-0.0))
    nodes = compile_definition(EncoderDefinition(relation="large", body=body)).nodes
    assert len(nodes) == 3


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_gathered_entries_equal_dense_entries(arity):
    rng = np.random.default_rng(20 + arity)
    scene = random_scene(rng, 8, "gather")
    geom = precompute_geometry(scene)
    n = len(scene)
    for defn in _definitions_of_arity(arity, rng):
        dense = eval_encoder(defn, scene, geom).data
        index = [rng.integers(0, n, 64) for _ in range(arity)]
        if arity == 3:
            index[2][:16] = index[1][:16]  # anchor == anchor2
        if arity >= 2:
            index[1][16:24] = index[0][16:24]  # repeated index: entry is 0
        index = tuple(index)
        got = eval_encoder_at(compile_definition(defn), geom, index)
        assert np.array_equal(got, dense[index])
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)


def test_hostile_bodies_reach_every_sanitize_rule():
    scene = random_scene(np.random.default_rng(3), 6, "hostile", span=8.0)
    geom = precompute_geometry(scene)
    bodies = _hostile_bodies(1)
    raws = [tree_walk_eval(EncoderDefinition(relation="large", body=b), scene, geom).data
            for b in bodies]
    assert np.all(raws[0] == 1e30)  # +inf is capped
    assert np.all(raws[1] == 0.0)  # -inf becomes 0
    assert np.all(raws[2] == 0.0)  # nan becomes 0


def test_gather_rejects_bad_index():
    scene = random_scene(np.random.default_rng(4), 5, "bad")
    geom = precompute_geometry(scene)
    compiled = compile_definition(encoder_to_dsl("near"))
    with pytest.raises(ValueError, match="index arrays"):
        eval_encoder_at(compiled, geom, (np.arange(3),))
    with pytest.raises(ValueError, match="out of range"):
        eval_encoder_at(compiled, geom, (np.arange(3), np.array([0, 1, 5])))
    with pytest.raises(ValueError, match="equal length"):
        eval_encoder_at(compiled, geom, (np.arange(3), np.arange(2)))


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_optimizer_matches_dense_scorer(arity, monkeypatch):
    relation = RELATION_OF_ARITY[arity]
    cfg = OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=arity)
    runs = []
    for scorer in (optimizer_module.run_test_suite, dense_run_test_suite):
        monkeypatch.setattr(optimizer_module, "run_test_suite", scorer)
        suite = build_margin_suite(relation, np.random.default_rng(30 + arity), n_cases=15)
        # a mirrored case no candidate can pass keeps the search at full budget
        first = suite.cases[0]
        mirrored = replace(first, target=first.distractor, distractor=first.target)
        suite = TestSuite(relation=relation, cases=(*suite.cases, mirrored), scenes=suite.scenes)
        source = MutationSource(skeleton=constant_perturbed(relation, arity))
        log = []
        best, history = optimize_encoder(relation, suite, source, EncoderRegistry(), cfg,
                                         log=log)
        runs.append((history, log, best.digest()))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 15


def test_chained_mutation_leaves_parents_and_graft_pool_untouched():
    pools = {objs: _graft_pool(set(objs)) for objs in ("i", "ij", "ijk")}
    pool_before = {key: json.dumps(pool, sort_keys=True) for key, pool in pools.items()}
    builtins_before = {name: json.dumps(d.body, sort_keys=True)
                       for name, d in builtin_definitions().items()}
    rng = np.random.default_rng(5)
    for relation in ("large", "near", "between"):
        defn = encoder_to_dsl(relation)
        parents = []
        for _ in range(200):
            parents.append((defn, defn.canonical_json(), defn.digest()))
            defn = mutate_definition(defn, int(rng.integers(2**31)))
        for parent, text, digest in parents:
            assert parent.canonical_json() == text
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
    for key, pool in pools.items():
        assert json.dumps(pool, sort_keys=True) == pool_before[key]
    for name, d in builtin_definitions().items():
        assert json.dumps(d.body, sort_keys=True) == builtins_before[name]


def test_dag_frees_intermediates_after_their_last_reader():
    import tracemalloc

    defn = encoder_to_dsl("between")
    compiled = compile_definition(defn)
    freed = sorted(p for frees in compiled.frees for p in frees)
    assert freed == list(range(len(compiled.nodes) - 1))  # all but the root, once each
    scene = random_scene(np.random.default_rng(8), 30, "peak")
    geom = precompute_geometry(scene)
    peaks = []
    for evaluate in (tree_walk_eval, eval_encoder):
        tracemalloc.start()
        try:
            evaluate(defn, scene, geom)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0]
