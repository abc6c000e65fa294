"""Fast paths against their reference paths.

The DAG evaluator, the shared pass over several bodies, the memoized
gathered walk, the suite-batched scorer,
the feature sanitizer and path-copying mutation must reproduce the tree
walk, per-body evaluations, fresh evaluations, per-scene gathering, the dense scorer, the
``nan_to_num`` sanitizer and deep-copying exactly.
"""

import gc
import hashlib
import json
import re
import weakref
from dataclasses import dataclass, field, replace

import numpy as np
import pytest

import sceneground.dsl as dsl
import sceneground.optimizer as optimizer_module
from sceneground.builtins import builtin_definitions, encoder_to_dsl
from sceneground.dsl import (
    DefinitionError,
    EncoderDefinition,
    GatherPlan,
    NodeSummary,
    agg,
    compile_definition,
    const,
    eval_encoder,
    eval_encoder_at,
    eval_encoders,
    eval_gathered,
    get,
    op,
)
from sceneground.expression import ALL_RELATIONS, relation_arity
from sceneground.mutation import _graft_sources, _preorder, mutate_definition
from sceneground.optimizer import (
    MutationSource,
    OptimizerConfig,
    TestCase,
    TestSuite,
    optimize_encoder,
    run_test_suite,
)
from sceneground.registry import EncoderRegistry
from sceneground.scene import precompute_geometry

from helpers import build_margin_suite, constant_perturbed, random_scene
from oracles import dense_run_test_suite, reference_sanitize, tree_walk_eval

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
def test_dense_dag_matches_tree_walk_on_mutation_chains(arity, monkeypatch):
    rng = np.random.default_rng(10 + arity)
    scene = random_scene(rng, 7, "chain")
    geom = precompute_geometry(scene)
    for defn in _definitions_of_arity(arity, rng):
        expected = tree_walk_eval(defn, scene, geom).data
        assert np.array_equal(eval_encoder(defn, scene, geom).data, expected)
        with monkeypatch.context() as patch:  # one i-row per chunk
            patch.setattr(dsl, "CHUNK_ELEMS", len(scene) ** (arity - 1))
            assert np.array_equal(eval_encoder(defn, scene, geom).data, expected)


def _shared_pass_groups(arity, rng):
    """Groups of rank-``arity`` bodies for one shared pass: all builtins of
    the rank, random subsets of them and of mutation chains in random order,
    and a group with equal root texts (one definition twice, an equal copy,
    and a root that is an inner node of another root)."""
    builtins = [d for d in builtin_definitions().values() if relation_arity(d.relation) == arity]
    pool = builtins + _mutation_chain(RELATION_OF_ARITY[arity], rng, steps=4)
    base = encoder_to_dsl(RELATION_OF_ARITY[arity])
    copy = EncoderDefinition(relation=base.relation, body=json.loads(json.dumps(base.body)))
    inner = EncoderDefinition(relation=base.relation,
                              body=compile_definition(base).args[0].node)
    groups = [builtins, [base, copy, inner, base]]
    for _ in range(3):
        picked = rng.permutation(len(pool))[:int(rng.integers(2, len(pool) + 1))]
        groups.append([pool[k] for k in picked])
    return groups


@pytest.mark.parametrize("chunk_elems", [None, 64])
@pytest.mark.parametrize("n", [1, 2, 5, 30])
def test_shared_pass_matches_per_body_evaluation(n, chunk_elems, monkeypatch):
    if chunk_elems is not None:  # rank 3 at n >= 5 runs in chunks of at most 2 i-rows
        monkeypatch.setattr(dsl, "CHUNK_ELEMS", chunk_elems)
    rng = np.random.default_rng(40 + n)
    scene = random_scene(rng, n, "shared")
    geom = precompute_geometry(scene)
    for arity in (1, 2, 3):
        for group in _shared_pass_groups(arity, rng):
            features = eval_encoders(group, scene, geom)
            assert len(features) == len(group)
            for defn, feature in zip(group, features):
                alone = eval_encoder(defn, scene, geom)
                if n <= 5:
                    assert np.array_equal(alone.data, tree_walk_eval(defn, scene, geom).data)
                assert feature.relation == defn.relation and feature.rank == arity
                assert feature.data.tobytes() == alone.data.tobytes(), defn.relation
                assert feature.data.flags.c_contiguous and not feature.data.flags.writeable
            assert len({id(f.data) for f in features}) == len(group)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_stacked_pass_features_are_finished_read_only_rows(arity, monkeypatch):
    """Each feature of a shared pass is its row of one stacked output: read
    only, C-contiguous, of shape (n,)*rank, and byte-equal to its one-body
    evaluation and to the gathered route at every index, in chunks of one
    i-row and with a body of constants only."""
    monkeypatch.setattr(dsl, "CHUNK_ELEMS", 1)
    rng = np.random.default_rng(60 + arity)
    scene = random_scene(rng, 6, "stacked")
    geom = precompute_geometry(scene)
    n = len(scene)
    relation = RELATION_OF_ARITY[arity]
    group = [d for d in builtin_definitions().values() if relation_arity(d.relation) == arity]
    group += [EncoderDefinition(relation=relation, body=op("add", const(0.5), const(1.0))),
              EncoderDefinition(relation=relation, body=const(-2.0))]
    index = tuple(np.indices((n,) * arity).reshape(arity, -1))
    for defn, feature in zip(group, eval_encoders(group, scene, geom)):
        data = feature.data
        assert data.shape == (n,) * arity and data.flags.c_contiguous
        with pytest.raises(ValueError, match="read-only"):
            data[(0,) * arity] = 1.0
        assert data.tobytes() == eval_encoder(defn, scene, geom).data.tobytes()
        gathered = eval_encoder_at(defn, geom, index)
        assert gathered.tobytes() == data.tobytes(), defn.relation


def test_shared_pass_runs_one_memoized_dag_over_distinct_subtrees(monkeypatch):
    group = [encoder_to_dsl(r) for r in ("left", "right", "front", "behind", "near")]
    texts = {s.text for d in group for s in _preorder(compile_definition(d))}
    dsl._shared_dag.cache_clear()
    built = []
    real_build = dsl._build_dag
    monkeypatch.setattr(dsl, "_build_dag", lambda roots: built.append(roots) or real_build(roots))
    scene = random_scene(np.random.default_rng(2), 6, "memo")
    geom = precompute_geometry(scene)
    for _ in range(3):
        eval_encoders(group, scene, geom)
    assert len(built) == 1  # the program is built once and reused
    for _ in range(3):
        eval_encoder(group[0], scene, geom)
    assert len(built) == 2  # so is a one-body program
    nodes, frees, outputs = dsl._shared_dag(tuple(compile_definition(d) for d in group))
    assert len(nodes) == len(texts) < sum(len(dsl._shared_dag((compile_definition(d),))[0])
                                          for d in group)
    assert all(pos not in dead for pos in outputs for dead in frees)  # roots are kept
    assert eval_encoders([], scene, geom) == []


@pytest.mark.parametrize("n", [1, 2, 3, 15, 70])
def test_mixed_rank_pass_matches_one_relation_calls(n):
    """One pass over every builtin, of all three ranks in shuffled order, a
    unary body of constants only and a binary body that reads only j: each
    feature equals its one-relation evaluation byte for byte, in data, shape
    and rank. At n = 70 the pass runs in chunks of the ternary step (53
    i-rows), where a unary or binary body alone runs in one."""
    rng = np.random.default_rng(70 + n)
    scene = random_scene(rng, n, "mixed")
    geom = precompute_geometry(scene)
    group = list(builtin_definitions().values())
    group += [EncoderDefinition(relation="large", body=op("add", const(0.5), const(1.0))),
              EncoderDefinition(relation="near", body=op("exp", get("center", "j", "x")))]
    group = [group[k] for k in rng.permutation(len(group))]
    features = eval_encoders(group, scene, geom)
    assert len(features) == len(group)
    for defn, feature in zip(group, features):
        alone = eval_encoder(defn, scene, geom)
        assert (feature.relation, feature.rank) == (alone.relation, alone.rank)
        assert feature.data.shape == alone.data.shape == (n,) * alone.rank
        assert feature.data.tobytes() == alone.data.tobytes(), defn.relation
        assert feature.data.flags.c_contiguous and not feature.data.flags.writeable


def test_repeated_subtrees_compile_to_one_node():
    nodes = dsl._shared_dag((compile_definition(encoder_to_dsl("between")),))[0]
    assert len(nodes) == len(set(nodes)) < 100
    assert nodes[-1][0] == "op"
    # children come before parents
    for pos, node in enumerate(nodes):
        if node[0] == "op":
            assert all(child < pos for child in node[2])
    # signed zeros stay distinct constants
    body = op("add", const(0.0), const(-0.0))
    signed = compile_definition(EncoderDefinition(relation="large", body=body))
    nodes = dsl._shared_dag((signed,))[0]
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
        got = eval_encoder_at(defn, geom, index)
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


def test_sanitize_writes_the_bytes_of_nan_to_num():
    """Every special value, at lengths and offsets that reach numpy's vector
    loops and their scalar tails, and in arrays of rank 2."""
    special = np.array([np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, -1.5, 2.5, 1e300, -1e300,
                        5e-324, -5e-324, 2.5e-310, -2.5e-310, 1e30, 2e30])
    rng = np.random.default_rng(0)
    for n in [*range(1, 40), 62, 64, 127, 1000]:
        values = np.concatenate([rng.choice(special, n), rng.normal(0.0, 10.0, n)])
        rng.shuffle(values)
        for offset in range(3):  # misaligned views too
            fast = np.empty(values.size + offset)[offset:]
            fast[:] = values
            assert dsl._sanitize(fast).tobytes() == reference_sanitize(values.copy()).tobytes()
        square = values.reshape(2, n)
        assert (dsl._sanitize(square.copy()).tobytes()
                == reference_sanitize(square.copy()).tobytes())


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_memoized_gathered_walk_matches_fresh_calls_and_tree_walk(arity):
    """One memo shared by the builtins, a mutation chain and the hostile
    bodies: each body gives the bytes of a fresh call and of the tree walk,
    and a second pass, served from the memo alone, gives them again."""
    rng = np.random.default_rng(60 + arity)
    scene = random_scene(rng, 7, "memo")
    geom = precompute_geometry(scene)
    index = tuple(rng.integers(0, len(scene), 80) for _ in range(arity))
    plan = GatherPlan((geom,), np.zeros(80, dtype=np.intp), index)
    defns = _definitions_of_arity(arity, rng)
    memo: dict = {}
    sizes = []
    for _ in range(2):
        for defn in defns:
            expected = tree_walk_eval(defn, scene, geom).data[index].tobytes()
            assert eval_gathered(defn, plan, memo).tobytes() == expected
            assert eval_gathered(defn, plan).tobytes() == expected
        sizes.append(len(memo))
    assert sizes[0] == sizes[1]


def _full_budget_suite(relation, seed, n_cases=12):
    suite = build_margin_suite(relation, np.random.default_rng(seed), n_cases=n_cases)
    # a mirrored case no candidate can pass keeps the search at full budget
    first = suite.cases[0]
    mirrored = replace(first, target=first.distractor, distractor=first.target)
    return TestSuite(relation=relation, cases=(*suite.cases, mirrored), scenes=suite.scenes)


def test_search_evaluates_each_summary_once_and_builds_no_dag(monkeypatch):
    """A full-budget search scores every candidate on one memo, keyed by
    node summary: every summary evaluated is stored once, so a child
    evaluates only what the search has not seen, under half the distinct
    texts of its candidates. An equal subtree that mutation built twice is
    evaluated twice; this seeded search has 7 such repeats. No candidate's
    DAG is built."""
    suite = _full_budget_suite("between", 8)
    stored: list[dsl.NodeSummary] = []

    class RecordingDict(dict):
        def __setitem__(self, key, value):
            stored.append(key)
            super().__setitem__(key, value)

    @dataclass
    class RecordingMemo(optimizer_module.SearchMemo):
        values: dict = field(default_factory=RecordingDict)

    evaluated: list[str] = []
    real_node_value = dsl._node_value

    def counting_node_value(entry, *args):
        evaluated.append(entry[0])
        return real_node_value(entry, *args)

    built = []
    real_build = dsl._build_dag
    monkeypatch.setattr(dsl, "_build_dag", lambda root: built.append(root) or real_build(root))
    monkeypatch.setattr(dsl, "_node_value", counting_node_value)
    monkeypatch.setattr(optimizer_module, "SearchMemo", RecordingMemo)
    drawn = []

    class RecordingSource(MutationSource):
        def draw(self, relation, **kwargs):
            drawn.append(super().draw(relation, **kwargs))
            return drawn[-1]

    log: list[dict] = []
    optimize_encoder("between", suite, RecordingSource(), EncoderRegistry(),
                     OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=4), log=log)
    assert len(log) == len(drawn) == 15
    assert len(evaluated) == len(stored) == len(set(map(id, stored)))
    assert "op" in evaluated
    # far fewer evaluations than the candidates' distinct nodes
    distinct = sum(len({s.text for s in _preorder(compile_definition(d))})
                   for d in drawn)
    assert 2 * len(evaluated) < distinct
    assert len(stored) - len({s.text for s in stored}) == 7
    assert built == []


def test_search_memo_dies_with_the_search(monkeypatch):
    """Once optimize_encoder returns, no op value it computed is alive, over
    repeated searches on one suite."""
    suite = _full_budget_suite("near", 9)
    refs = []
    real_node_value = dsl._node_value

    def recording_node_value(entry, *args):
        value = real_node_value(entry, *args)
        if entry[0] == "op" and isinstance(value, np.ndarray):
            refs.append(weakref.ref(value))
        return value

    monkeypatch.setattr(dsl, "_node_value", recording_node_value)
    registry = EncoderRegistry()
    for seed in range(3):
        optimize_encoder("near", suite, MutationSource(), registry,
                         OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=seed))
        gc.collect()
        assert refs and all(ref() is None for ref in refs)


def test_gather_rejects_bad_index():
    scene = random_scene(np.random.default_rng(4), 5, "bad")
    geom = precompute_geometry(scene)
    near = encoder_to_dsl("near")
    with pytest.raises(ValueError, match="index arrays"):
        eval_encoder_at(near, geom, (np.arange(3),))
    with pytest.raises(ValueError, match="out of range"):
        eval_encoder_at(near, geom, (np.arange(3), np.array([0, 1, 5])))
    with pytest.raises(ValueError, match="equal length"):
        eval_encoder_at(near, geom, (np.arange(3), np.arange(2)))
    with pytest.raises(ValueError, match="segment out of range"):
        GatherPlan((geom,), [0, 1], (np.arange(2), np.arange(2)))


def test_gathered_evaluators_check_the_definition_they_are_given():
    """``eval_gathered`` and ``eval_encoder_at`` take a definition and check
    it by the memoized pass: an unchecked body that breaks a rule raises its
    DefinitionError text, and a checked body is one root summary."""
    geom = precompute_geometry(random_scene(np.random.default_rng(4), 5, "unchecked"))
    index = (np.arange(3), np.array([1, 2, 0]))
    plan = GatherPlan((geom,), np.zeros(3, dtype=np.intp), index)
    reads_k = op("sub", get("size", "i", "x"), get("size", "k", "x"))
    text = "body.args[1]: accessor object 'k' not allowed here (allowed: ('i', 'j'))"
    for evaluate in (lambda d: eval_gathered(d, plan), lambda d: eval_encoder_at(d, geom, index)):
        with pytest.raises(DefinitionError, match=rf"^{re.escape(text)}$"):
            evaluate(EncoderDefinition(relation="near", body=reads_k))
    defn = EncoderDefinition(relation="near", body=encoder_to_dsl("near").body)
    root = compile_definition(defn)
    assert isinstance(root, NodeSummary) and compile_definition(defn) is root
    assert eval_gathered(defn, plan).tobytes() == eval_encoder_at(defn, geom, index).tobytes()
    assert compile_definition(defn) is root


def _scene_constant_bodies(arity):
    """Bodies with const-only and aggregate-only subtrees, some under exp/sqrt/div."""
    last = "ijk"[arity - 1]
    diag = agg("mean_diagonal")
    return [
        const(0.5),
        op("exp", const(60.0)),
        op("div", const(1.0), const(0.0)),
        diag,
        op("exp", op("mul", agg("center_max", "x"), const(3.7))),
        op("exp", op("neg", op("div", agg("volume_max"), agg("volume_min")))),
        op("sqrt", op("sub", agg("center_max", "z"), agg("floor_z"))),
        op("div", agg("volume_max"), op("sub", agg("hull_min", "y"), agg("centroid", "y"))),
        op("mul", op("exp", op("neg", diag)), get("size", last, "x")),
        op("add", get("center", "i", "x"), op("exp", op("div", agg("hull_max", "x"), diag))),
    ]


def _mixed_n_suite(arity, rng):
    """Suite over scenes of 4, 7 and 11 objects; every third case at arity 3
    repeats its anchor as anchor2."""
    scenes, cases = {}, []
    for n in (4, 7, 11):
        sid = f"n{n}"
        scenes[sid] = random_scene(rng, n, sid)
        for k in range(6):
            t, d, a, a2 = (int(v) for v in rng.permutation(n)[:4])
            cases.append(TestCase(scene_id=sid, target=t, distractor=d,
                                  anchor=a if arity >= 2 else None,
                                  anchor2=(a if k % 3 == 0 else a2) if arity == 3 else None))
    return TestSuite(relation=RELATION_OF_ARITY[arity], cases=tuple(cases), scenes=scenes)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_suite_batched_scores_match_per_scene_and_dense(arity):
    rng = np.random.default_rng(40 + arity)
    suite = _mixed_n_suite(arity, rng)
    bodies = [d.body for d in _definitions_of_arity(arity, rng)] + _scene_constant_bodies(arity)
    defns = [EncoderDefinition(relation=suite.relation, body=b) for b in bodies]
    # the plan's points: every case's target tuple, then every distractor tuple
    points = [(c.scene_id, tuple(suite.scenes[c.scene_id].index_of[getattr(c, name)]
                                 for name in (who, "anchor", "anchor2")[:arity]))
              for who in ("target", "distractor") for c in suite.cases]
    plan = suite._plan
    raw_ndims = set()
    for defn in defns:
        batched = eval_gathered(defn, plan)
        # the broadcast form every body took before: a copy, whatever the raw value
        memo = {}
        eval_gathered(defn, plan, memo)
        raw = memo[compile_definition(defn)]
        raw_ndims.add(np.ndim(raw))
        broadcast = reference_sanitize(np.array(np.broadcast_to(
            np.asarray(raw, dtype=np.float64), plan.segment.shape)))
        broadcast[plan.repeated] = 0.0
        assert batched.tobytes() == broadcast.tobytes()
        per_scene = np.empty_like(batched)
        dense = np.empty_like(batched)
        for sid, scene in suite.scenes.items():
            geom = precompute_geometry(scene)
            rows = [m for m, (s, _) in enumerate(points) if s == sid]
            index = tuple(np.array(column) for column in zip(*(points[m][1] for m in rows)))
            per_scene[rows] = eval_encoder_at(defn, geom, index)
            dense[rows] = eval_encoder(defn, scene, geom).data[index]
        assert batched.tobytes() == per_scene.tobytes() == dense.tobytes()
        fast, reference = run_test_suite(defn, suite), dense_run_test_suite(defn, suite)
        assert (fast.pass_rate, fast.failures) == (reference.pass_rate, reference.failures)
    assert raw_ndims == {0, 1}  # scalar bodies and per-point arrays


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_optimizer_matches_dense_scorer(arity, monkeypatch):
    relation = RELATION_OF_ARITY[arity]
    cfg = OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=arity)
    runs = []
    for scorer in (optimizer_module.run_test_suite, dense_run_test_suite):
        monkeypatch.setattr(optimizer_module, "run_test_suite", scorer)
        suite = _full_budget_suite(relation, 30 + arity, n_cases=15)
        source = MutationSource(skeleton=constant_perturbed(relation, arity))
        log = []
        best, history = optimize_encoder(relation, suite, source, EncoderRegistry(), cfg,
                                         log=log)
        runs.append((history, log, best.digest()))
    assert runs[0] == runs[1]
    assert len(runs[0][1]) == 15


def test_chained_mutation_leaves_parents_and_graft_pool_untouched():
    pools = {objs: [s.node for s in _graft_sources(objs)] for objs in (1, 3, 7)}
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
    nodes, frees, _ = dsl._shared_dag((compile_definition(defn),))
    freed = sorted(p for dying in frees for p in dying)
    assert freed == list(range(len(nodes) - 1))  # all but the root, once each
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
