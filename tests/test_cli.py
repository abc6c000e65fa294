import json
import shutil

import numpy as np
import pytest

from sceneground.builtins import encoder_to_dsl
from sceneground.cli import main
from sceneground.dsl import eval_encoder
from sceneground.minibench import generate_mini_benchmark
from sceneground.scene import precompute_geometry, save_scene

from helpers import random_scene

CHAIR_EXPR = ('{"category":"chair","relations":'
              '[{"relation_name":"near","objects":[{"category":"table"}]}]}')


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("dataset")
    generate_mini_benchmark(root, seed=7)
    return root


def test_parse_offline_expr(tmp_path, capsys):
    src = tmp_path / "raw.json"
    src.write_text(CHAIR_EXPR, encoding="utf-8")
    out = tmp_path / "canonical.json"
    assert main(["parse", "--offline-expr", str(src), "--out", str(out)]) == 0
    parsed = json.loads(out.read_text())
    assert parsed["category"] == "chair"
    assert parsed["relations"][0]["anchors"][0]["category"] == "table"
    assert parsed["relations"][0]["negative"] is False


def test_parse_unknown_relation_exits_2(tmp_path, capsys):
    src = tmp_path / "raw.json"
    src.write_text('{"category":"bed","relations":[{"relation_name":"hovering"}]}',
                   encoding="utf-8")
    assert main(["parse", "--offline-expr", str(src)]) == 2
    assert "hovering" in capsys.readouterr().err


def test_parse_jsonl_batch(tmp_path):
    src = tmp_path / "batch.jsonl"
    src.write_text("\n".join([CHAIR_EXPR] * 10), encoding="utf-8")
    out = tmp_path / "canonical.jsonl"
    assert main(["parse", "--in", str(src), "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    assert all(json.loads(line)["category"] == "chair" for line in lines)


def test_ground_argmax_and_determinism(dataset, tmp_path):
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    scene_path = dataset / "scenes" / "mini_prox.json"
    assert main(["ground", "--scene", str(scene_path), "--expr", str(expr),
                 "--out", str(out_a)]) == 0
    assert main(["ground", "--scene", str(scene_path), "--expr", str(expr),
                 "--out", str(out_b)]) == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    result = json.loads(out_a.read_text())
    assert result["argmax"] == 10  # the chair beside the table
    assert result["scores"][0]["id"] == 10


def test_ground_top_k_one(dataset, tmp_path):
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    out = tmp_path / "r.json"
    assert main(["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                 "--expr", str(expr), "--top-k", "1", "--out", str(out)]) == 0
    result = json.loads(out.read_text())
    assert result["candidates"] == [result["argmax"]]


def test_ground_missing_scene_is_validation_error(tmp_path, capsys):
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    assert main(["ground", "--scene", str(tmp_path / "nope.json"),
                 "--expr", str(expr)]) == 2


def make_near_suite_files(tmp_path, rng):
    scenes_dir = tmp_path / "scenes"
    scenes_dir.mkdir(exist_ok=True)
    scene = random_scene(rng, 8, "sc0")
    save_scene(scene, scenes_dir / "sc0.json")
    geom = precompute_geometry(scene)
    data = eval_encoder(encoder_to_dsl("near"), scene, geom).data
    cases = []
    for _ in range(400):
        t, d, a = (int(v) for v in rng.integers(0, 8, 3))
        if len({t, d, a}) < 3:
            continue
        if data[t, a] > 1.3 * data[d, a] and data[d, a] > 0:
            cases.append({"scene_id": "sc0", "target": t, "distractor": d, "anchor": a})
        if len(cases) >= 20:
            break
    suite_path = tmp_path / "suite.json"
    suite_path.write_text(json.dumps({"relation": "near", "cases": cases}), encoding="utf-8")
    return suite_path, scenes_dir


def test_optimize_command_updates_registry(tmp_path, capsys):
    rng = np.random.default_rng(0)
    suite_path, scenes_dir = make_near_suite_files(tmp_path, rng)
    registry_path = tmp_path / "registry.json"
    log_path = tmp_path / "run.jsonl"
    assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                 "--scenes", str(scenes_dir), "--source", "mutate",
                 "--seed", "3", "--registry", str(registry_path),
                 "--log", str(log_path)]) == 0
    out = capsys.readouterr().out
    assert "iteration 1" in out
    registry = json.loads(registry_path.read_text())
    assert len(registry["library"]) == 1
    log_lines = log_path.read_text().strip().splitlines()
    assert 1 <= len(log_lines) <= 65
    record = json.loads(log_lines[0])
    assert set(record) == {"iteration", "index", "pass_rate", "n_failures", "definition_hash",
                           "note"}


def test_optimize_single_iteration(tmp_path, capsys):
    rng = np.random.default_rng(1)
    suite_path, scenes_dir = make_near_suite_files(tmp_path, rng)
    registry_path = tmp_path / "registry.json"
    assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                 "--scenes", str(scenes_dir), "--n-iter", "1",
                 "--seed", "0", "--registry", str(registry_path)]) == 0
    out = capsys.readouterr().out
    assert out.count("iteration") == 1


def test_bench_report_self_consistent(dataset, tmp_path, capsys):
    out = tmp_path / "report.json"
    plots = tmp_path / "plots"
    assert main(["bench", "--dataset", str(dataset), "--baseline",
                 "--workers", "3", "--out", str(out), "--plots", str(plots)]) == 0
    report = json.loads(out.read_text())
    records = report["records"]
    assert report["aggregates"]["n_records"] == len(records) == 40
    recount = sum(1 for r in records if r["correct"]) / len(records)
    assert report["aggregates"]["accuracy"] == recount
    assert report["aggregates"]["random_baseline"] <= 0.30
    # record order is input order regardless of worker scheduling
    input_order = [json.loads(line)["scene_id"]
                   for line in (dataset / "expressions.jsonl").read_text().splitlines()
                   if line.strip()]
    assert [r["scene_id"] for r in records] == input_order
    manifest = json.loads((plots / "manifest.json").read_text())
    assert len(manifest["heatmaps"]) == 4 * 5
    assert len(manifest["steps"]) == 40
    for entry in manifest["heatmaps"][:3]:
        assert (plots / entry["file"]).exists()


def test_bench_missing_dataset_is_runtime_error(tmp_path):
    assert main(["bench", "--dataset", str(tmp_path / "missing")]) == 1


def test_optimize_outputs_are_byte_deterministic(tmp_path):
    rng = np.random.default_rng(2)
    suite_path, scenes_dir = make_near_suite_files(tmp_path, rng)
    outputs = []
    for tag in ("a", "b"):
        registry_path = tmp_path / f"registry_{tag}.json"
        log_path = tmp_path / f"run_{tag}.jsonl"
        assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                     "--scenes", str(scenes_dir), "--seed", "11",
                     "--registry", str(registry_path), "--log", str(log_path)]) == 0
        outputs.append((registry_path.read_bytes(), log_path.read_bytes()))
    assert outputs[0] == outputs[1]


def test_config_file_with_flag_precedence(dataset, tmp_path):
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "scene": str(dataset / "scenes" / "mini_prox.json"),
        "expr": str(expr),
        "top_k": 2,
        "threshold": 0.0,
    }), encoding="utf-8")
    out_config = tmp_path / "from_config.json"
    assert main(["ground", "--config", str(config), "--out", str(out_config)]) == 0
    assert len(json.loads(out_config.read_text())["candidates"]) == 2

    # an explicit flag wins over the config value
    out_flag = tmp_path / "from_flag.json"
    assert main(["ground", "--config", str(config), "--top-k", "1",
                 "--out", str(out_flag)]) == 0
    assert len(json.loads(out_flag.read_text())["candidates"]) == 1


def test_config_missing_required_field_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("{}", encoding="utf-8")
    assert main(["ground", "--config", str(config)]) == 2
    assert "--scene" in capsys.readouterr().err


@pytest.mark.parametrize("case", [
    {"scene_id": "sc0", "distractor": 1, "anchor": 2},
    {"scene_id": "sc0", "target": [0], "distractor": 1, "anchor": 2},
])
def test_optimize_malformed_suite_case_exits_2(tmp_path, capsys, case):
    rng = np.random.default_rng(0)
    suite_path, scenes_dir = make_near_suite_files(tmp_path, rng)
    suite_path.write_text(json.dumps({"relation": "near", "cases": [case]}), encoding="utf-8")
    assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                 "--scenes", str(scenes_dir), "--registry", str(tmp_path / "r.json")]) == 2
    assert "error:" in capsys.readouterr().err


def test_corrupt_registry_exits_2(dataset, tmp_path, capsys):
    registry_path = tmp_path / "registry.json"
    registry_path.write_text('{"active": {', encoding="utf-8")
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    assert main(["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                 "--expr", str(expr), "--registry", str(registry_path)]) == 2
    suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
    assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                 "--scenes", str(scenes_dir), "--registry", str(registry_path)]) == 2
    assert registry_path.read_text() == '{"active": {'



def _bench_with_line(line):
    """argv for ``bench`` over a copy of the dataset whose second line is ``line``
    (a callable of the first, valid line's dict, or a raw string)."""

    def build(dataset, tmp_path):
        copy = tmp_path / "ds"
        shutil.copytree(dataset / "scenes", copy / "scenes")
        good = (dataset / "expressions.jsonl").read_text().splitlines()[0]
        bad = line if isinstance(line, str) else json.dumps(line(json.loads(good)))
        (copy / "expressions.jsonl").write_text(f"{good}\n{bad}\n", encoding="utf-8")
        return ["bench", "--dataset", str(copy)], "expressions.jsonl:2:"

    return build


def _patched(**changes):
    """Valid line with ``changes`` applied; a ``None`` value drops the key."""

    def patch(raw):
        raw.update(changes)
        return {k: v for k, v in raw.items() if v is not None}

    return _bench_with_line(patch)


def _ground_top_k(top_k):
    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--top-k", top_k], "--top-k"

    return build


def _ground_with_registry(body):
    """``ground`` over a registry whose library holds ``body`` for ``near``."""

    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(
            {"active": {}, "library": [{"relation": "near", "body": body}]}), encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--registry", str(registry)], "body"

    return build


def _ground_config(**config):
    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--config", str(config_path)], "--top-k"

    return build


def _optimize_n_iter(n_iter):
    def build(dataset, tmp_path):
        suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
        return ["optimize", "--relation", "near", "--suite", str(suite_path),
                "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json"),
                "--n-iter", n_iter], "n_iter"

    return build


@pytest.mark.parametrize("build", [
    _ground_top_k("0"),
    _ground_top_k("-3"),
    _ground_config(top_k="abc"),
    _optimize_n_iter("0"),
    _ground_with_registry({"get": []}),
    _ground_with_registry({"op": {}, "args": []}),
    _ground_with_registry({"agg": ["x"]}),
    _ground_with_registry({"get": "center", "obj": "i", "axis": ["x"]}),
    _bench_with_line('{"scene_id": "mini_prox", '),
    _bench_with_line("[1, 2]"),
    _patched(scene_id=None),
    _patched(expression=None),
    _patched(ground_truth=None),
    _patched(scene_id=["mini_prox"]),
    _patched(ground_truth="3"),
    _patched(ground_truth=2.5),
    _patched(ground_truth=True),
    _patched(scene_id="no_such_scene"),
    _patched(ground_truth=999),
    _patched(expression={"relations": []}),
], ids=["top_k_0", "top_k_negative", "config_top_k_string", "optimize_n_iter_0",
        "registry_get_list", "registry_op_object", "registry_agg_list", "registry_axis_list",
        "invalid_json", "not_an_object", "no_scene_id",
        "no_expression", "no_ground_truth", "scene_id_list", "ground_truth_string",
        "ground_truth_float", "ground_truth_bool", "unknown_scene",
        "ground_truth_not_in_scene", "malformed_expression"])
def test_malformed_input_exits_2(dataset, tmp_path, capsys, build):
    argv, where = build(dataset, tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert where in err
