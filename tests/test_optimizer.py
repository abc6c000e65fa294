import gc
import hashlib
import json
import logging
import struct
from dataclasses import replace

import numpy as np
import pytest

from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import EncoderDefinition, const, eval_encoder, op
from sceneground.optimizer import (
    CandidateSourceError,
    MutationSource,
    OptimizationAborted,
    OptimizerConfig,
    SearchMemo,
    SuiteError,
    CandidateReport,
    TestCase,
    TestSuite,
    _draw_seed,
    default_example_graph,
    load_suite,
    optimize_encoder,
    retrieve_example,
    run_test_suite,
    select_top_k,
    synthesize_error_message,
)
from sceneground.registry import EncoderRegistry
from sceneground.scene import precompute_geometry, save_scene, scene_from_dict

from helpers import build_margin_suite, constant_perturbed, op_swapped, random_scene

T_BOX = "[0.000000, 0.000000, 1.000000, 1.000000, 1.000000, 1.000000]"
A_BOX = "[0.000000, 0.000000, 0.000000, 1.000000, 1.000000, 1.000000]"
D_BOX = "[5.000000, 0.000000, 1.000000, 1.000000, 1.000000, 1.000000]"

GOLDEN_BINARY = (
    f'{T_BOX} is above {A_BOX} So feature value of {T_BOX} "above" {A_BOX} '
    f'should be larger than the feature value of {D_BOX} "above" {A_BOX}.'
)
GOLDEN_UNARY = (
    f"{T_BOX} is large So feature value of {T_BOX} should be larger than "
    f"the feature value of {D_BOX}."
)
GOLDEN_SPOKEN = (
    f'{T_BOX} is on the floor So feature value of {T_BOX} should be larger than '
    f"the feature value of {D_BOX}."
)


@pytest.fixture
def message_scene():
    return scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "t", "bbox": [0, 0, 1, 1, 1, 1]},
        {"id": 1, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 2, "label": "d", "bbox": [5, 0, 1, 1, 1, 1]},
    ]})


def test_golden_binary_message(message_scene):
    case = TestCase(scene_id="s", target=0, distractor=2, anchor=1)
    assert synthesize_error_message(case, message_scene, "above") == GOLDEN_BINARY


def test_golden_unary_message(message_scene):
    case = TestCase(scene_id="s", target=0, distractor=2)
    assert synthesize_error_message(case, message_scene, "large") == GOLDEN_UNARY


def test_multiword_relation_is_spoken_in_prose(message_scene):
    case = TestCase(scene_id="s", target=0, distractor=2)
    assert synthesize_error_message(case, message_scene, "on_the_floor") == GOLDEN_SPOKEN


def test_messages_differ_only_in_box_fields(message_scene):
    a = synthesize_error_message(
        TestCase(scene_id="s", target=0, distractor=2, anchor=1), message_scene, "above")
    b = synthesize_error_message(
        TestCase(scene_id="s", target=2, distractor=0, anchor=1), message_scene, "above")
    assert a != b
    assert a.replace(T_BOX, "X").replace(D_BOX, "Y") == \
        b.replace(D_BOX, "X").replace(T_BOX, "Y")


def test_message_determinism(message_scene):
    case = TestCase(scene_id="s", target=0, distractor=2, anchor=1)
    assert synthesize_error_message(case, message_scene, "above") == \
        synthesize_error_message(case, message_scene, "above")


def make_suite(relation="near", feature_pairs=None):
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [1, 0, 0, 1, 1, 1]},
        {"id": 2, "label": "c", "bbox": [8, 0, 0, 1, 1, 1]},
    ]})
    cases = (TestCase(scene_id="s", target=0, distractor=2, anchor=1),)
    return TestSuite(relation=relation, cases=cases, scenes={"s": scene})


def test_run_suite_builtin_passes():
    suite = make_suite()
    report = run_test_suite(encoder_to_dsl("near"), suite)
    assert report.pass_rate == 1.0
    assert report.failures == ()


def test_ties_fail():
    suite = make_suite()
    constant = EncoderDefinition(relation="near", body=const(0.5))
    report = run_test_suite(constant, suite)
    assert report.pass_rate == 0.0
    assert len(report.failures) == 1
    case, message = report.failures[0]
    assert case.target == 0
    assert '"near"' in message


def test_invalid_definition_scores_zero_with_note():
    suite = make_suite()
    bad = EncoderDefinition(relation="near", body={"get": "volume", "obj": "k"})
    report = run_test_suite(bad, suite)
    assert report.pass_rate == 0.0
    assert "validation failed" in report.note


def test_relation_mismatch_rejected():
    suite = make_suite()
    with pytest.raises(SuiteError):
        run_test_suite(encoder_to_dsl("far"), suite)


def test_suite_validation_errors():
    scene = scene_from_dict({"scene_id": "s", "objects": [
        {"id": 0, "label": "a", "bbox": [0, 0, 0, 1, 1, 1]},
        {"id": 1, "label": "b", "bbox": [1, 0, 0, 1, 1, 1]},
    ]})
    with pytest.raises(SuiteError, match="no cases"):
        TestSuite(relation="near", cases=(), scenes={"s": scene})
    with pytest.raises(SuiteError, match="needs an anchor"):
        TestSuite(relation="near",
                  cases=(TestCase(scene_id="s", target=0, distractor=1),),
                  scenes={"s": scene})
    with pytest.raises(SuiteError, match="not in scene"):
        TestSuite(relation="near",
                  cases=(TestCase(scene_id="s", target=0, distractor=9, anchor=1),),
                  scenes={"s": scene})
    with pytest.raises(SuiteError, match="anchors must differ"):
        TestSuite(relation="near",
                  cases=(TestCase(scene_id="s", target=0, distractor=1, anchor=0),),
                  scenes={"s": scene})


def test_builtin_passes_margin_suite_for_every_relation():
    rng = np.random.default_rng(0)
    for relation in ("near", "above", "large", "between"):
        suite = build_margin_suite(relation, rng, n_cases=20)
        report = run_test_suite(encoder_to_dsl(relation), suite)
        assert report.pass_rate == 1.0, relation


def report_with_rate(rate, tag):
    defn = EncoderDefinition(relation="near", body=const(rate), metadata=tag)
    return CandidateReport(definition=defn, pass_rate=rate, failures=())


def test_select_top_k_stable():
    reports = [report_with_rate(r, str(k)) for k, r in enumerate([0.9, 0.5, 0.7, 0.9])]
    picked = select_top_k(reports, 3)
    assert [p.definition.metadata for p in picked] == ["0", "3", "2"]
    assert [p.pass_rate for p in picked] == [0.9, 0.9, 0.7]


def test_select_top_k_truncates():
    reports = [report_with_rate(0.5, str(k)) for k in range(25)]
    assert len(select_top_k(reports, 3)) == 3
    single = [report_with_rate(0.5, "only")]
    assert select_top_k(single, 3) == single


def test_example_graph_rules():
    assert default_example_graph() == {
        "small": "large", "low": "high", "on_the_floor": "against_the_wall",
        "far": "near", "below": "above", "right": "left", "behind": "front",
        "between": "near",
    }


def test_retrieve_example_after_acceptance(caplog):
    registry = EncoderRegistry()
    graph = default_example_graph()
    with caplog.at_level(logging.WARNING):
        assert retrieve_example("far", graph, registry) is None
    assert "never" in caplog.text or "no encoder" in caplog.text
    accepted = encoder_to_dsl("near")
    registry.accept(accepted)
    assert retrieve_example("far", graph, registry) == accepted
    assert retrieve_example("near", graph, registry) is None


def test_mutation_source_fallback_order():
    source = MutationSource(skeleton=constant_perturbed("near", 3))
    example = encoder_to_dsl("near")
    parent = encoder_to_dsl("near")
    via_context = source.draw("near", context=(parent, ()), example=example, seed=5)
    via_example = source.draw("near", example=example, seed=5)
    via_skeleton = source.draw("near", seed=5)
    # the example is never a base: without a context the skeleton is
    assert via_example == via_skeleton
    assert via_skeleton != via_context
    assert source.draw("near", seed=5) == via_skeleton  # deterministic
    # without a skeleton, the relation's builtin
    assert MutationSource().draw("far", example=encoder_to_dsl("near"), seed=5) == \
        MutationSource().draw("far", seed=5)


def test_an_accepted_predecessor_does_not_change_a_mutation_search():
    """An example-graph edge near -> far is an in-context reference, not a
    mutation base: with an accepted ``near`` in the registry, the search for
    ``far`` logs the same candidates with the default graph as without one."""
    registry = EncoderRegistry()
    near = build_margin_suite("near", np.random.default_rng(4), n_cases=8)
    optimize_encoder("near", near, MutationSource(), registry,
                     OptimizerConfig(n_iter=2, n_sample=3, top_k=2, seed=1))
    assert registry.accepted_definition("near") is not None
    far = build_margin_suite("far", np.random.default_rng(5), n_cases=8)
    cfg = OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=2)
    logs = []
    for graph in (default_example_graph(), None):
        log: list[dict] = []
        best, history = optimize_encoder("far", far, MutationSource(), registry, cfg,
                                         graph, log)
        logs.append((log, history, best.digest()))
    assert retrieve_example("far", default_example_graph(), registry) is not None
    assert logs[0] == logs[1]


def test_optimizer_reaches_perfect_on_perturbed_start():
    rng = np.random.default_rng(0)
    suite = build_margin_suite("near", rng)
    source = MutationSource(skeleton=constant_perturbed("near", 0))
    registry = EncoderRegistry()
    log = []
    best, history = optimize_encoder("near", suite, source, registry,
                                     OptimizerConfig(seed=0), log=log)
    assert history == sorted(history)
    assert history[-1] == 1.0
    assert run_test_suite(best, suite).pass_rate == 1.0
    assert len(log) <= 65
    assert registry.accepted_definition("near") == best
    assert registry.active_definition("near") == best


def test_optimizer_repairs_op_swapped_start():
    reached = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        suite = build_margin_suite("near", rng)
        source = MutationSource(skeleton=op_swapped("near", seed))
        _, history = optimize_encoder("near", suite, source, EncoderRegistry(),
                                      OptimizerConfig(seed=seed))
        assert history == sorted(history)
        if history[-1] == 1.0:
            reached += 1
    assert reached >= 8


def test_early_exit_on_perfect_first_iteration():
    rng = np.random.default_rng(1)
    suite = build_margin_suite("near", rng)

    class PerfectSource:
        def draw(self, relation, *, context=None, example=None, seed=0):
            return encoder_to_dsl(relation)

    log = []
    best, history = optimize_encoder("near", suite, PerfectSource(), EncoderRegistry(),
                                     OptimizerConfig(seed=0), log=log)
    assert history == [1.0]
    # the whole first round is evaluated, then the search stops
    assert len(log) == 5
    assert best == encoder_to_dsl("near")


def test_budget_bound_on_unsolvable_suite():
    rng = np.random.default_rng(2)
    suite = build_margin_suite("near", rng, n_cases=10)

    class UselessSource:
        def draw(self, relation, *, context=None, example=None, seed=0):
            return EncoderDefinition(relation=relation, body=const(0.5), metadata=str(seed))

    cfg = OptimizerConfig(n_iter=5, n_sample=5, top_k=3, seed=0)
    log = []
    best, history = optimize_encoder("near", suite, UselessSource(), EncoderRegistry(),
                                     cfg, log=log)
    assert len(history) == 5
    assert len(log) == 5 + 4 * 3 * 5
    assert history[-1] == 0.0


def test_source_failure_aborts_with_partial_history():
    rng = np.random.default_rng(3)
    suite = build_margin_suite("near", rng, n_cases=10)

    class FlakySource:
        def __init__(self):
            self.calls = 0

        def draw(self, relation, *, context=None, example=None, seed=0):
            self.calls += 1
            if self.calls > 7:
                raise CandidateSourceError("endpoint down")
            return EncoderDefinition(relation=relation, body=const(0.5),
                                     metadata=str(self.calls))

    with pytest.raises(OptimizationAborted) as err:
        optimize_encoder("near", suite, FlakySource(), EncoderRegistry(),
                         OptimizerConfig(seed=0))
    assert err.value.history == [0.0]


def test_each_draw_gets_its_own_seed_once():
    suite = build_margin_suite("near", np.random.default_rng(3), n_cases=10)

    class RecordingSource:
        def __init__(self):
            self.seeds = []

        def draw(self, relation, *, context=None, example=None, seed=0):
            self.seeds.append(seed)
            return EncoderDefinition(relation=relation, body=const(0.5), metadata=str(seed))

    base = 2**40 + 17  # only the low 32 bits key the draws
    cfg = OptimizerConfig(n_iter=3, n_sample=2, top_k=2, seed=base)
    source = RecordingSource()
    optimize_encoder("near", suite, source, EncoderRegistry(), cfg)
    keys = [(1, 0, sample) for sample in range(2)]
    keys += [(iteration, parent, sample) for iteration in (2, 3)
             for parent in range(2) for sample in range(2)]
    assert source.seeds == [_draw_seed(17, *key) for key in keys]
    assert source.seeds == [_draw_seed(base, *key) for key in keys]
    assert len(set(source.seeds)) == len(keys)


def test_draw_seed_known_answers():
    """Pinned draw seeds, each also rebuilt from the rule: a 4-byte blake2b
    digest of (low 32 bits of the base, round, parent, sample)."""
    pinned = {(0, 1, 0, 0): 1901757762, (0, 2, 1, 2): 3896986913,
              (2**32 - 1, 5, 7, 7): 2632587359, (2**40 + 17, 1, 0, 0): 2568442504}
    for (base, *key), expected in pinned.items():
        assert _draw_seed(base, *key) == expected
        digest = hashlib.blake2b(struct.pack("<4Q", base % 2**32, *key), digest_size=4).digest()
        assert int.from_bytes(digest, "little") == expected
    assert _draw_seed(2**40 + 17, 1, 0, 0) == _draw_seed(17, 1, 0, 0)


def test_duplicate_candidates_share_feature_computation(monkeypatch):
    rng = np.random.default_rng(4)
    suite = build_margin_suite("near", rng, n_cases=10)
    calls = []
    import sceneground.optimizer as optimizer_module

    original = optimizer_module.eval_gathered

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(optimizer_module, "eval_gathered", counting)

    class ConstantSource:
        def draw(self, relation, *, context=None, example=None, seed=0):
            return EncoderDefinition(relation=relation, body=const(0.5))

    memo_runs = optimize_encoder("near", suite, ConstantSource(), EncoderRegistry(),
                                 OptimizerConfig(n_iter=2, seed=0))
    # identical candidates across draws hit the memo: one evaluation covers
    # every scene of the suite
    assert len(suite.scenes) > 1
    assert sum(calls) == 1


def test_report_determinism():
    rng = np.random.default_rng(5)
    suite = build_margin_suite("near", rng, n_cases=15)
    defn = constant_perturbed("near", 1)
    a = run_test_suite(defn, suite)
    b = run_test_suite(defn, suite)
    assert a.pass_rate == b.pass_rate
    assert [m for _, m in a.failures] == [m for _, m in b.failures]


def test_load_suite_from_files(tmp_path):
    rng = np.random.default_rng(6)
    scenes_dir = tmp_path / "scenes"
    scenes_dir.mkdir()
    scene = random_scene(rng, 5, "sc0")
    save_scene(scene, scenes_dir / "sc0.json")
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(
        '{"relation": "near", "cases":'
        ' [{"scene_id": "sc0", "target": 0, "distractor": 1, "anchor": 2}]}',
        encoding="utf-8")
    suite = load_suite(suite_path, scenes_dir)
    assert suite.relation == "near"
    assert len(suite.cases) == 1
    assert suite.scenes["sc0"].fingerprint() == scene.fingerprint()


@pytest.mark.parametrize("bad_case", [
    {"scene_id": "sc0", "distractor": 1, "anchor": 2},
    {"scene_id": "sc0", "target": [0], "distractor": 1, "anchor": 2},
    {"scene_id": "sc0", "target": 0, "distractor": "1", "anchor": 2},
    {"scene_id": "sc0", "target": True, "distractor": 1, "anchor": 2},
    {"scene_id": "sc0", "target": 0, "distractor": 1, "anchor": 2.0},
    {"scene_id": "sc0", "target": 0, "distractor": 1, "anchor": 2, "anchor2": [3]},
    {"scene_id": ["sc0"], "target": 0, "distractor": 1, "anchor": 2},
])
def test_load_suite_rejects_malformed_cases(tmp_path, bad_case):
    scenes_dir = tmp_path / "scenes"
    scenes_dir.mkdir()
    save_scene(random_scene(np.random.default_rng(6), 5, "sc0"), scenes_dir / "sc0.json")
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"relation": "near", "cases": [bad_case]}),
                          encoding="utf-8")
    with pytest.raises(SuiteError):
        load_suite(suite_path, scenes_dir)


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_load_suite_rejects_unparsable_file(tmp_path, text):
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(text, encoding="utf-8")
    with pytest.raises(SuiteError):
        load_suite(suite_path, tmp_path)


def test_log_entries_carry_the_failure_note():
    rng = np.random.default_rng(7)
    suite = build_margin_suite("near", rng, n_cases=10)

    class AlternatingSource:
        def draw(self, relation, *, context=None, example=None, seed=0):
            if seed % 2:
                return EncoderDefinition(relation=relation, body={"get": "volume", "obj": "k"})
            return EncoderDefinition(relation=relation, body=const(0.5))

    logs = []
    for _ in range(2):
        log = []
        optimize_encoder("near", suite, AlternatingSource(), EncoderRegistry(),
                         OptimizerConfig(n_iter=2, n_sample=4, top_k=1, seed=0), log=log)
        logs.append(log)
    assert logs[0] == logs[1]
    notes = {entry["note"] for entry in logs[0]}
    assert "" in notes
    assert any(note.startswith("validation failed: body: accessor object 'k'")
               for note in notes)


def test_memo_of_another_suite_is_refused():
    first = build_margin_suite("near", np.random.default_rng(11), n_cases=6)
    second = build_margin_suite("near", np.random.default_rng(12), n_cases=6)
    memo = SearchMemo(first._plan)
    defn = encoder_to_dsl("near")
    report = run_test_suite(defn, first, memo)
    assert run_test_suite(defn, first, memo) == report == run_test_suite(defn, first)
    with pytest.raises(ValueError, match="another suite"):
        run_test_suite(defn, second, memo)


def _search_rotation_digest() -> str:
    """sha256 over a seeded rotation of full-budget searches on one registry:
    every log, history, winner digest and metadata, then the library."""
    suites = []
    for k, relation in enumerate(("near", "at_the_corner", "between")):
        suite = build_margin_suite(relation, np.random.default_rng(100 + k), n_cases=12)
        first = suite.cases[0]
        mirrored = replace(first, target=first.distractor, distractor=first.target)
        suites.append(TestSuite(relation=relation, cases=suite.cases + (mirrored,),
                                scenes=suite.scenes))
    registry = EncoderRegistry()
    record = []
    for seed in (0, 3, 7):
        for suite in suites:
            log: list[dict] = []
            best, history = optimize_encoder(
                suite.relation, suite, MutationSource(), registry,
                OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=seed), log=log)
            record.append({"log": log, "history": history, "winner": best.digest(),
                           "metadata": best.metadata})
    record.append([defn.digest() for defn in registry.library])
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode("utf-8")).hexdigest()


def test_search_rotation_is_pinned():
    """Searches are part of the contract: the same seeds give the same draws,
    children, logs, histories, winners and library, byte for byte."""
    assert _search_rotation_digest() == (
        "2d3ea89ab397adef580838f41ea14e72ccb28b51c38f68d70c31a859c709d744")


def test_a_seeded_optimize_rotation_leaves_no_reference_cycles():
    """Searches from unchecked skeletons (so each runs the full check pass)
    and a dense evaluation of each winner (so each builds its DAG) leave no
    cyclic garbage: none of their objects waits for the cyclic collector."""
    suites = {relation: build_margin_suite(relation, np.random.default_rng(100 + k), n_cases=8)
              for k, relation in enumerate(("at_the_corner", "near", "between"))}
    rotation = ("at_the_corner", "near", "at_the_corner", "near", "between")
    registry = EncoderRegistry()
    cfg = OptimizerConfig(n_iter=3, n_sample=3, top_k=2, seed=0)

    def run(first):
        for k in range(first, first + len(rotation)):
            suite = suites[rotation[k % len(rotation)]]
            best, _ = optimize_encoder(suite.relation, suite,
                                       MutationSource(skeleton=op_swapped(suite.relation, k)),
                                       registry, replace(cfg, seed=k), log=[])
            scene = next(iter(suite.scenes.values()))
            eval_encoder(best, scene, precompute_geometry(scene))

    run(0)  # warm-up: imports and process-wide memos
    gc.collect()
    old = gc.get_debug()
    gc.garbage.clear()
    try:
        gc.set_debug(gc.DEBUG_SAVEALL)
        run(len(rotation))
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(old)
        gc.garbage.clear()
