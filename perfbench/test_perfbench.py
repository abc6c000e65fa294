"""Tests of the benchmark itself: generators, checks and printed metric names.

Run from the repository root: ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DESIGN = json.loads((HERE / "design.json").read_text(encoding="utf-8"))


def _bytes(value) -> bytes:
    return json.dumps(value, sort_keys=True).encode()


def test_generators_are_deterministic_per_seed(tmp_path):
    assert _bytes(gen.warm_inputs(3, pool=20)) == _bytes(gen.warm_inputs(3, pool=20))
    assert _bytes(gen.warm_inputs(3, pool=20)) != _bytes(gen.warm_inputs(4, pool=20))
    assert _bytes(gen.cold_op(3, 1, 7)) == _bytes(gen.cold_op(3, 1, 7))
    assert _bytes(gen.cold_op(3, 1, 7)) != _bytes(gen.cold_op(4, 1, 7))
    suite_a = gen.margin_suite(gen.stream(3, gen.SUITE, 0), "near", n_cases=10)
    suite_b = gen.margin_suite(gen.stream(3, gen.SUITE, 0), "near", n_cases=10)
    assert _bytes(suite_a) == _bytes(suite_b)
    assert _bytes(suite_a) != _bytes(gen.margin_suite(gen.stream(4, gen.SUITE, 0), "near", n_cases=10))
    assert gen.bench_seeds(3) == gen.bench_seeds(3)
    assert len(set(gen.bench_seeds(3))) == 4 and gen.bench_seeds(3) != gen.bench_seeds(4)
    # what the program reads from disk is byte-identical too
    scene = gen.warm_inputs(3, n_scenes=1, pool=1)[0][0]
    gen.write_json(tmp_path / "a.json", scene)
    gen.write_json(tmp_path / "b.json", gen.warm_inputs(3, n_scenes=1, pool=1)[0][0])
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_expression_controls():
    rng = gen.stream(0, 99)
    pool = gen.expression_pool(rng, list(gen.LABELS), 200)

    def clauses(node):
        for clause in node["relations"]:
            yield clause
            for anchor in clause["anchors"]:
                yield from clauses(anchor)

    def depth(node):
        return 1 + max((depth(a) for c in node["relations"] for a in c["anchors"]), default=0)

    with_between = [e for e in pool if any(c["relation_name"] == "between" for c in clauses(e))]
    assert len(with_between) == 40
    assert all(depth(e) <= 3 for e in pool)
    negated = [c["negative"] for e in pool for c in clauses(e)]
    assert 0.1 < sum(negated) / len(negated) < 0.3
    used = {c["relation_name"] for e in pool for c in clauses(e)}
    assert used == set(gen.ARITY)


def test_cold_schedule_has_exact_shares():
    plan = [gen.cold_op(5, 0, k) for k in range(gen.COLD_BLOCK)]
    sizes = [len(scene["objects"]) for scene, _ in plan]
    assert {n: sizes.count(n) for n in gen.COLD_SIZES} == {25: 16, 50: 16, 100: 16}
    ternary = [len(scene["objects"]) for scene, expr in plan
               if any(c["relation_name"] == "between" for c in expr["relations"])]
    assert sorted(ternary) == [25, 50, 100]


@pytest.mark.parametrize("relation", ["at_the_corner", "near", "between"])
def test_mirrored_case_keeps_pass_rate_below_one(tmp_path, relation):
    from sceneground import encoder_to_dsl, run_test_suite
    from sceneground.optimizer import load_suite

    suite_raw, scenes = gen.margin_suite(gen.stream(1, gen.SUITE, 0), relation, n_cases=10)
    for scene in scenes:
        gen.write_json(tmp_path / f"{scene['scene_id']}.json", scene)
    gen.write_json(tmp_path / "suite.json", suite_raw)
    suite = load_suite(tmp_path / "suite.json", tmp_path)
    first, mirrored = suite.cases[0], suite.cases[-1]
    assert (mirrored.target, mirrored.distractor) == (first.distractor, first.target)
    report = run_test_suite(encoder_to_dsl(relation), suite)
    # the builtin passes every margin case, so the mirrored one is its only failure
    assert report.pass_rate == (len(suite.cases) - 1) / len(suite.cases)


def _grounded():
    import sceneground as sg
    from sceneground.scene import scene_from_dict

    scene = scene_from_dict(gen.warm_inputs(2, n_scenes=1, n=12, pool=1)[0][0])
    expr = sg.parse_expression(json.dumps(
        {"category": scene.labels[0], "relations": [{"relation_name": "near",
                                                     "anchors": [{"category": scene.labels[1]}]}]}))
    cache = sg.FeatureCache(scene, sg.EncoderRegistry())
    score = sg.execute(expr, scene, cache)
    return sg, scene, expr, score, sg.grounding_result(scene, expr, score)


def test_checks_accept_correct_output():
    sg, scene, expr, score, result = _grounded()
    assert checks.check_grounding(score, result, scene) is None
    definitions = sg.EncoderRegistry().snapshot()
    expected = checks.Reference(scene, definitions).scores(json.loads(sg.serialize_expression(expr)))
    assert checks.check_reference(score.data, expected) is None


def test_corrupted_scores_and_wrong_argmax_trip_the_checks():
    sg, scene, _, score, result = _grounded()
    for corrupt in (np.nan, np.inf, -1e-3):
        data = score.data.copy()
        data[3] = corrupt
        bad = sg.MatchingScore(data=data, object_ids=score.object_ids)
        assert checks.check_grounding(bad, result, scene) is not None
    short = sg.MatchingScore(data=score.data[:-1], object_ids=score.object_ids[:-1])
    assert checks.check_grounding(short, result, scene) is not None

    winner = score.argmax_id()
    loser = next(i for i in scene.ids if i != winner)
    assert checks.check_argmax(loser, score.data, scene.ids) is not None
    assert checks.check_argmax(max(scene.ids) + 1, score.data, scene.ids) is not None
    assert checks.check_grounding(score, dict(result, argmax=loser), scene) is not None

    assert checks.check_reference(score.data + 1e-6, score.data) is not None
    assert checks.check_reference(score.data[:-1], score.data) is not None


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_printed_metric_names_are_declared(trace):
    proc = _run("--workload", "all", "--seed", "1", "--seconds", "2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    declared = BENCHMARK["per_layer" if trace == "1" else "end_to_end"]
    declared_names = {m["name"] for m in declared}
    for workload in ("ground_warm", "ground_cold", "bench", "optimize"):
        names = {k.split(".", 1)[1] for k in result["metrics"] if k.startswith(workload + ".")}
        assert names == declared_names
    table_only = set(DESIGN["table_only_figures"])
    printed = [line.split()[0] for line in lines[:-1] if line.startswith("  ")]
    assert printed
    for name in printed:
        assert NAME.fullmatch(name), name
        assert name in declared_names or (trace == "0" and name in table_only), name


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("--workload", "bench", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
