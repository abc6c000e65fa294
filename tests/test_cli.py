import importlib
import json
import pkgutil
import shutil

import numpy as np
import pytest

import sceneground
from sceneground.atomic import InputError
from sceneground.builtins import encoder_to_dsl
from sceneground.cli import main
from sceneground.executor import ExecutionError
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


def test_parse_in_reads_its_own_output(tmp_path):
    """``parse`` writes non-ASCII text raw, line separators such as U+2028
    and U+0085 included, and ``parse --in`` reads that output back."""
    src = tmp_path / "raw.json"
    src.write_text(CHAIR_EXPR.replace('"table"', '"table\u2028lamp\u0085"'), encoding="utf-8")
    first = tmp_path / "first.jsonl"
    second = tmp_path / "second.jsonl"
    assert main(["parse", "--offline-expr", str(src), "--out", str(first)]) == 0
    assert "\u2028" in first.read_text(encoding="utf-8")
    assert main(["parse", "--in", str(first), "--out", str(second)]) == 0
    assert second.read_bytes() == first.read_bytes()


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


def test_optimize_accepts_loose_relation_spellings(tmp_path, capsys):
    """``--relation`` is normalized as the suite's relation is, whichever
    spelling either uses."""
    scenes_dir = tmp_path / "scenes"
    scenes_dir.mkdir()
    scene = random_scene(np.random.default_rng(4), 8, "sc0")
    save_scene(scene, scenes_dir / "sc0.json")
    data = eval_encoder(encoder_to_dsl("on_the_floor"), scene, precompute_geometry(scene)).data
    order = [int(k) for k in np.argsort(-data, kind="stable")]
    cases = [{"scene_id": "sc0", "target": order[0], "distractor": d} for d in order[4:]]
    suite_path = tmp_path / "suite.json"
    for written, given in (("On The Floor", "on the floor"), ("on_the_floor", "On_The_Floor"),
                           ("on-the-floor", "on_the_floor")):
        suite_path.write_text(json.dumps({"relation": written, "cases": cases}), encoding="utf-8")
        assert main(["optimize", "--relation", given, "--suite", str(suite_path),
                     "--scenes", str(scenes_dir), "--n-iter", "1", "--n-sample", "2",
                     "--registry", str(tmp_path / "registry.json")]) == 0
        assert "accepted encoder for 'on_the_floor'" in capsys.readouterr().out


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


def _unknown_relation(option):
    """``ground --registry`` whose library holds an entry for relation
    ``foo``, or ``optimize --suite`` over a suite for ``foo``."""

    def build(dataset, tmp_path):
        if option == "--suite":
            suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
            raw = json.loads(suite_path.read_text(encoding="utf-8"))
            suite_path.write_text(json.dumps({**raw, "relation": "foo"}), encoding="utf-8")
            return ["optimize", "--relation", "near", "--suite", str(suite_path),
                    "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json")], \
                f"error: {suite_path}: unknown relation 'foo'; known relations: "
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps({"library": [{"relation": "foo", "body": {"const": 1}}]}),
                            encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--registry", str(registry)], \
            f"error: {registry}: library[0]: unknown relation 'foo'; known relations: "

    return build


def _parse_config_unknown_key(dataset, tmp_path):
    """``parse`` with a config key that no subcommand has a flag for."""
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"top_k": 2, "n_iters": 1}), encoding="utf-8")
    return ["parse", "--offline-expr", str(expr), "--config", str(config)], \
        f"error: {config}: unknown option 'n_iters'\n"


def _optimize_unknown_relation(dataset, tmp_path):
    """``optimize --relation nope`` over a suite for ``near``: the name is
    checked before the suite is read."""
    suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
    return ["optimize", "--relation", "nope", "--suite", str(suite_path),
            "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json")], \
        "error: unknown relation 'nope'; known relations: large, small,"


def _optimize_unknown_source(dataset, tmp_path):
    """A config's ``source`` that is neither mutate nor llm, with a suite
    that does not exist: the source is checked before any file is read."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"source": "bogus"}), encoding="utf-8")
    return ["optimize", "--relation", "near", "--suite", str(tmp_path / "nosuch.json"),
            "--scenes", str(tmp_path), "--registry", str(tmp_path / "registry.json"),
            "--config", str(config)], "error: unknown source 'bogus'; expected mutate or llm\n"


def _ground_top_k(top_k):
    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--top-k", top_k], "--top-k"

    return build


def _registry_is_another_file(command):
    """``command`` whose ``--registry`` names its own suite (``optimize``,
    which would write over it) or a scene file (``ground``, ``bench``,
    which read it as a registry)."""

    def build(dataset, tmp_path):
        suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        scene = scenes_dir / "sc0.json"
        argv = {"optimize": ["optimize", "--relation", "near", "--suite", str(suite_path),
                             "--scenes", str(scenes_dir), "--registry", str(suite_path)],
                "ground": ["ground", "--scene", str(scene), "--expr", str(expr),
                           "--registry", str(scene)],
                "bench": ["bench", "--dataset", str(dataset), "--registry", str(scene)]}[command]
        if command == "optimize":
            return argv, f"error: --registry {suite_path} names the --suite file"
        return argv, f"error: {scene}: unknown key "

    return build


def _optimize_log_is_registry(dataset, tmp_path):
    """``optimize`` whose ``--log`` names its ``--registry`` file, by
    another spelling of the path."""
    suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
    registry = tmp_path / "registry.json"
    assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                 "--scenes", str(scenes_dir), "--registry", str(registry), "--n-iter", "1"]) == 0
    return ["optimize", "--relation", "near", "--suite", str(suite_path), "--scenes",
            str(scenes_dir), "--registry", str(registry), "--n-iter", "1",
            "--log", str(tmp_path / "." / "registry.json")], "names the --registry file"


def _output_names_input(case):
    """A command whose output option names one of its inputs, or (for
    ``--plots``) a directory inside its ``--dataset``."""

    def build(dataset, tmp_path):
        copy = tmp_path / "ds"
        shutil.copytree(dataset, copy)
        scene = copy / "scenes" / "mini_prox.json"
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        if case == "optimize_log_is_suite":
            suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
            return ["optimize", "--relation", "near", "--suite", str(suite_path),
                    "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json"),
                    "--n-iter", "1", "--log", str(suite_path)], \
                f"error: --log {suite_path} names the --suite file"
        argv, where = {
            "bench_out_in_dataset": (["bench", "--dataset", str(copy), "--out",
                                      str(copy / "expressions.jsonl")],
                                     "names the --dataset file"),
            "ground_out_is_scene": (["ground", "--scene", str(scene), "--expr", str(expr),
                                     "--out", str(scene)], "names the --scene file"),
            "parse_out_is_in": (["parse", "--in", str(expr), "--out", str(expr)],
                                "names the --in file"),
            "bench_plots_in_dataset": (["bench", "--dataset", str(copy), "--plots",
                                        str(copy / "plots")],
                                       "lies in the --dataset directory"),
        }[case]
        return argv, f"error: {argv[-2]} {argv[-1]} {where}\n"

    return build


OUTPUTS_NAMING_INPUTS = ["bench_out_in_dataset", "optimize_log_is_suite", "ground_out_is_scene",
                         "parse_out_is_in", "bench_plots_in_dataset"]


def _ground_with_registry(body):
    """``ground`` over a registry whose library holds ``body`` for ``near``."""

    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(
            {"active": {}, "library": [{"relation": "near", "body": body}]}), encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--registry", str(registry)], f"{registry}: library[0]: body"

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


def _config_only(command, where, **overrides):
    """``command`` given only a config: valid paths, then ``overrides``."""

    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        config = {
            "ground": {"scene": str(dataset / "scenes" / "mini_prox.json"), "expr": str(expr)},
            "bench": {"dataset": str(dataset)},
        }[command]
        config.update(overrides)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return [command, "--config", str(config_path)], where

    return build


def _ground_scene_with(**changes):
    """``ground`` over a copy of a dataset scene with ``changes`` applied."""

    def build(dataset, tmp_path):
        raw = json.loads((dataset / "scenes" / "mini_prox.json").read_text())
        raw.update(changes)
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(raw), encoding="utf-8")
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        return ["ground", "--scene", str(scene), "--expr", str(expr)], "scene.json"

    return build


def _ground_blank_label(label):
    """``ground`` over a copy of a dataset scene whose first object is
    labelled ``label``."""

    def build(dataset, tmp_path):
        raw = json.loads((dataset / "scenes" / "mini_prox.json").read_text())
        raw["objects"][0]["label"] = label
        scene = tmp_path / "scene.json"
        scene.write_text(json.dumps(raw), encoding="utf-8")
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        return ["ground", "--scene", str(scene), "--expr", str(expr)], "label"

    return build


def _ground_blank_category(category):
    """``ground`` with an expression whose anchor category is ``category``."""

    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR.replace('"table"', json.dumps(category)), encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr)], "category"

    return build


HUGE_INT = 10 ** 400  # too large for a float
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than the recursion limit


def _huge_bbox_value(command):
    """``command`` over a scene whose first box holds :data:`HUGE_INT`."""

    def build(dataset, tmp_path):
        if command == "optimize":
            suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
            scene_path = scenes_dir / "sc0.json"
            argv = ["optimize", "--relation", "near", "--suite", str(suite_path),
                    "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json")]
        elif command == "bench":
            copy = tmp_path / "ds"
            shutil.copytree(dataset, copy)
            scene_path = copy / "scenes" / "mini_prox.json"
            argv = ["bench", "--dataset", str(copy)]
        else:
            scene_path = tmp_path / "scene.json"
            shutil.copy(dataset / "scenes" / "mini_prox.json", scene_path)
            expr = tmp_path / "expr.json"
            expr.write_text(CHAIR_EXPR, encoding="utf-8")
            argv = ["ground", "--scene", str(scene_path), "--expr", str(expr)]
        raw = json.loads(scene_path.read_text(encoding="utf-8"))
        raw["objects"][0]["bbox"][1] = HUGE_INT
        scene_path.write_text(json.dumps(raw), encoding="utf-8")
        return argv, "bbox[1] is too large for a float"

    return build


LONG_INT = "1" + "0" * 5000  # 5,001 digits: more than int() takes from a string


def _ground_long_int(option):
    """``ground`` whose scene holds :data:`LONG_INT` as a bbox value, or
    whose config holds it as ``threshold``; the fault names the file."""

    def build(dataset, tmp_path):
        scene, expr, config = (tmp_path / name for name in ("scene.json", "expr.json", "c.json"))
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        raw = json.loads((dataset / "scenes" / "mini_prox.json").read_text(encoding="utf-8"))
        argv = ["ground", "--scene", str(scene), "--expr", str(expr)]
        if option == "--scene":
            raw["objects"][0]["bbox"][1] = "LONG_INT"
            bad = scene
        else:
            config.write_text('{"threshold": ' + LONG_INT + "}", encoding="utf-8")
            argv += ["--config", str(config)]
            bad = config
        scene.write_text(json.dumps(raw).replace('"LONG_INT"', LONG_INT), encoding="utf-8")
        return argv, f"error: {bad}: "

    return build


def _ground_deep_json(option):
    """``ground`` whose scene or expression file nests :data:`DEEP_JSON`."""

    def build(dataset, tmp_path):
        bad = tmp_path / "input.json"
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        if option == "--scene":
            bad.write_text('{"scene_id": "s", "objects": ' + DEEP_JSON + "}", encoding="utf-8")
            return ["ground", "--scene", str(bad), "--expr", str(expr)], "nested too deeply"
        bad.write_text('{"category": "chair", "relations": ' + DEEP_JSON + "}", encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(bad)], "nested too deeply"

    return build


def _ground_threshold(threshold):
    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        return ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                "--expr", str(expr), "--threshold", threshold], "--threshold"

    return build


def _unreadable(option, kind):
    """An input file given to ``option`` that is missing, a directory or not
    UTF-8; the other inputs are valid."""

    def build(dataset, tmp_path):
        bad = tmp_path / "input.json"
        if kind == "directory":
            bad.mkdir()
        elif kind == "not_utf8":
            bad.write_bytes(b'{"category": "\xff"}')
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        scene = str(dataset / "scenes" / "mini_prox.json")
        argv = {
            "ground --expr": ["ground", "--scene", scene, "--expr", str(bad)],
            "ground --scene": ["ground", "--scene", str(bad), "--expr", str(expr)],
            "parse --offline-expr": ["parse", "--offline-expr", str(bad)],
            "parse --in": ["parse", "--in", str(bad)],
        }[option]
        return argv, "input.json"

    return build


UNREADABLE = [(option, kind) for option in ("ground --expr", "parse --offline-expr", "parse --in")
              for kind in ("missing", "directory", "not_utf8")]

# an input file's bytes for each fault every loader shares (None: no file)
INPUT_FAULTS = {
    "missing": None,
    "directory": None,
    "not_utf8": b'{"x": "\xff"}',
    "truncated": b'{"x": ',
    "deep_json": DEEP_JSON.encode(),
    "top_level_array": b"[1, 2]",
}


def write_input_fault(path, fault):
    """Leave ``path`` as an input file with ``fault`` (see :data:`INPUT_FAULTS`)."""
    if fault == "directory":
        path.mkdir()
    elif INPUT_FAULTS[fault] is not None:
        path.write_bytes(INPUT_FAULTS[fault])


def _faulty_input(option, fault):
    """An input file given to ``option`` that has ``fault``; the other
    inputs are valid, and the message starts with the file's path."""

    def build(dataset, tmp_path):
        bad = tmp_path / "input.json"
        write_input_fault(bad, fault)
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        ground = ["ground", "--scene", str(dataset / "scenes" / "mini_prox.json")]
        argv = {
            "--config": [*ground, "--expr", str(expr), "--config", str(bad)],
            "ground --registry": [*ground, "--expr", str(expr), "--registry", str(bad)],
            "ground --expr": [*ground, "--expr", str(bad)],
            "optimize --suite": ["optimize", "--relation", "near", "--suite", str(bad),
                                 "--scenes", str(tmp_path),
                                 "--registry", str(tmp_path / "registry.json")],
        }[option]
        unreadable = fault in ("missing", "directory", "not_utf8")
        return argv, f"error: cannot read {bad}: " if unreadable else f"error: {bad}: "

    return build


FAULTY_INPUTS = [(option, fault) for option in ("--config", "ground --registry", "optimize --suite")
                 for fault in INPUT_FAULTS] + [("ground --expr", "truncated")]


def _parse_in_broken_line(dataset, tmp_path):
    """``parse --in`` over a line file whose third line is not JSON."""
    lines = tmp_path / "input.jsonl"
    lines.write_text(f"{CHAIR_EXPR}\n{CHAIR_EXPR}\n{{\"category\": \n{CHAIR_EXPR}\n",
                     encoding="utf-8")
    return ["parse", "--in", str(lines)], f"error: {lines}:3: invalid JSON at line 1 column 14"


def _parse_in_no_entries(dataset, tmp_path):
    """``parse --in`` over a line file of blank lines only."""
    lines = tmp_path / "input.jsonl"
    lines.write_text("\n  \n", encoding="utf-8")
    return ["parse", "--in", str(lines)], f"error: {lines}: no entries\n"


def _bench_unreadable(kind):
    """``bench`` over a dataset that is missing, or whose ``expressions.jsonl``
    is a directory or not UTF-8."""

    def build(dataset, tmp_path):
        copy = tmp_path / "ds"
        if kind != "missing":
            shutil.copytree(dataset / "scenes", copy / "scenes")
        if kind == "directory":
            (copy / "expressions.jsonl").mkdir()
        elif kind == "not_utf8":
            (copy / "expressions.jsonl").write_bytes(b'{"scene_id": "\xff"}\n')
        return ["bench", "--dataset", str(copy)], "expressions.jsonl"

    return build


def _optimize_config(**config):
    """``optimize`` over valid files with ``config`` as its config file."""

    def build(dataset, tmp_path):
        suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return ["optimize", "--relation", "near", "--suite", str(suite_path),
                "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json"),
                "--config", str(config_path)], f"--{next(iter(config)).replace('_', '-')}"

    return build


def _config_row(command, where, config, *flags):
    """``command`` with ``flags``, ``config`` as its config file and valid
    required options (``parse`` has none)."""

    def build(dataset, tmp_path):
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        argv = {"parse": [], "bench": ["--dataset", str(dataset)],
                "ground": ["--scene", str(dataset / "scenes" / "mini_prox.json"),
                           "--expr", str(expr)]}.get(command)
        if command == "optimize":
            suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
            argv = ["--relation", "near", "--suite", str(suite_path), "--scenes",
                    str(scenes_dir), "--registry", str(tmp_path / "registry.json")]
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config), encoding="utf-8")
        return [command, *argv, *flags, "--config", str(config_path)], where

    return build


# rows whose value a flag also gives: the whole config file is checked
SHADOWED = [("ground", "--top-k", {"top_k": "abc"}, "--top-k", "2"),
            ("ground", "--threshold", {"threshold": None}, "--threshold", "0.5"),
            ("bench", "--baseline", {"baseline": None}, "--baseline")]


def _bench_workers(workers):
    def build(dataset, tmp_path):
        return ["bench", "--dataset", str(dataset), "--workers", workers], "--workers"

    return build


def _optimize_scene_outside(absolute):
    """``optimize`` whose first case names a readable scene file outside
    ``--scenes``, by a ``../`` path or by an absolute one."""

    def build(dataset, tmp_path):
        suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
        outside = tmp_path / "outside"
        outside.mkdir()
        shutil.copy(scenes_dir / "sc0.json", outside / "x.json")
        raw = json.loads(suite_path.read_text(encoding="utf-8"))
        raw["cases"][0]["scene_id"] = str(outside / "x") if absolute else "../outside/x"
        suite_path.write_text(json.dumps(raw), encoding="utf-8")
        return ["optimize", "--relation", "near", "--suite", str(suite_path),
                "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json"),
                "--n-iter", "1"], "case 0: scene_id"

    return build


def _optimize_n_iter(n_iter):
    def build(dataset, tmp_path):
        suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
        return ["optimize", "--relation", "near", "--suite", str(suite_path),
                "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json"),
                "--n-iter", n_iter], "n_iter"

    return build


def _bad_output(command, option, fault):
    """``command`` whose ``option`` names a path it cannot write: with
    ``fault`` "taken", an existing path of the wrong kind (a file for
    ``--plots``, a directory for a file it writes); with "no_parent", a file
    in a directory that does not exist."""

    def build(dataset, tmp_path):
        path = tmp_path / "taken"
        if fault == "no_parent":
            path = tmp_path / "no_such_dir" / "out.json"
        elif option == "--plots":
            path.write_text("x", encoding="utf-8")
        else:
            path.mkdir()
        expr = tmp_path / "expr.json"
        expr.write_text(CHAIR_EXPR, encoding="utf-8")
        scene = str(dataset / "scenes" / "mini_prox.json")
        if command == "optimize":
            suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
            argv = ["optimize", "--relation", "near", "--suite", str(suite_path),
                    "--scenes", str(scenes_dir), "--registry", str(tmp_path / "registry.json"),
                    "--n-iter", "1", "--n-sample", "2"]
        else:
            argv = {"parse": ["parse", "--offline-expr", str(expr)],
                    "ground": ["ground", "--scene", scene, "--expr", str(expr)],
                    "bench": ["bench", "--dataset", str(dataset)]}[command]
        return [*argv, option, str(path)], option

    return build


OUTPUTS_TAKEN = [("parse", "--out"), ("ground", "--out"), ("bench", "--out"),
                 ("bench", "--plots"), ("optimize", "--log")]
OUTPUTS_WITHOUT_PARENT = [("parse", "--out"), ("ground", "--out"), ("bench", "--out"),
                          ("optimize", "--log"), ("optimize", "--registry")]


@pytest.mark.parametrize("build", [
    _ground_top_k("0"),
    _ground_top_k("-3"),
    _ground_config(top_k="abc"),
    _optimize_n_iter("0"),
    _registry_is_another_file("optimize"),
    _registry_is_another_file("ground"),
    _registry_is_another_file("bench"),
    _optimize_log_is_registry,
    *[_output_names_input(case) for case in OUTPUTS_NAMING_INPUTS],
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
    _config_only("ground", "--scene", scene=5),
    _config_only("ground", "--out", out=["x"]),
    _config_only("ground", "--registry", registry={}),
    _config_only("bench", "--dataset", dataset=7),
    _bench_workers("0"),
    _config_only("bench", "--workers", workers=-3),
    _config_only("bench", "--baseline", baseline="no"),
    _ground_scene_with(similarities={"categories": ["chair"], "values": [["q"]]}),
    _ground_scene_with(similarities={"categories": ["chair"], "values": [["0.5"]]}),
    _ground_scene_with(similarities={"categories": ["chair"], "values": [[0.5], [0.5, 1]]}),
    _ground_threshold("nan"),
    _ground_threshold("inf"),
    _ground_blank_label("   "),
    _ground_blank_category(" \t "),
    *[_unreadable(option, kind) for option, kind in UNREADABLE],
    _unreadable("ground --scene", "not_utf8"),
    _bench_unreadable("missing"),
    _bench_unreadable("directory"),
    _bench_unreadable("not_utf8"),
    _ground_config(top_k=2.9),
    _optimize_config(n_iter=2.5),
    _huge_bbox_value("ground"),
    _huge_bbox_value("bench"),
    _huge_bbox_value("optimize"),
    _ground_deep_json("--scene"),
    _ground_deep_json("--expr"),
    _ground_long_int("--scene"),
    _ground_long_int("--config"),
    _bench_with_line(DEEP_JSON),
    _optimize_scene_outside(absolute=False),
    _optimize_scene_outside(absolute=True),
    *[_bad_output(command, option, "taken") for command, option in OUTPUTS_TAKEN],
    *[_bad_output(command, option, "no_parent") for command, option in OUTPUTS_WITHOUT_PARENT],
    _patched(utterance={"x": [1, 2]}),
    *[_faulty_input(option, fault) for option, fault in FAULTY_INPUTS],
    _parse_in_broken_line,
    _parse_in_no_entries,
    _unknown_relation("--registry"),
    _unknown_relation("--suite"),
    _parse_config_unknown_key,
    _optimize_unknown_relation,
    _optimize_unknown_source,
    _config_row("parse", "--utterance", {"utterance": 5}),
    _config_row("parse", "--utterance", {"utterance": ["x"]}),
    _config_row("parse", "--offline-expr", {"offline_expr": 5}),
    _config_row("ground", "--threshold", {"threshold": "x"}),
    _config_row("ground", "--top-k", {"top_k": None}),
    _config_row("optimize", "--seed", {"seed": True}),
    _config_row("optimize", "error: unknown source ['llm']; expected mutate or llm\n",
                {"source": ["llm"]}),
    *[_config_row(*row) for row in SHADOWED],
], ids=["top_k_0", "top_k_negative", "config_top_k_string", "optimize_n_iter_0",
        "optimize_registry_is_suite", "ground_registry_is_scene", "bench_registry_is_scene",
        "optimize_log_is_registry", *OUTPUTS_NAMING_INPUTS,
        "registry_get_list", "registry_op_object", "registry_agg_list", "registry_axis_list",
        "invalid_json", "not_an_object", "no_scene_id",
        "no_expression", "no_ground_truth", "scene_id_list", "ground_truth_string",
        "ground_truth_float", "ground_truth_bool", "unknown_scene",
        "ground_truth_not_in_scene", "malformed_expression", "config_scene_number",
        "config_out_list", "config_registry_object", "config_bench_dataset_number",
        "bench_workers_0", "config_bench_workers_negative", "config_bench_baseline_string",
        "similarity_not_numeric", "similarity_numeric_string", "similarity_ragged",
        "threshold_nan", "threshold_inf", "label_whitespace", "category_whitespace",
        *[f"{option.replace(' --', '_').replace('-', '_')}_{kind}" for option, kind in UNREADABLE],
        "ground_scene_not_utf8", "bench_dataset_missing", "bench_expressions_directory",
        "bench_expressions_not_utf8", "config_top_k_fraction", "config_n_iter_fraction",
        "ground_bbox_overflow", "bench_bbox_overflow", "optimize_bbox_overflow",
        "ground_scene_deep_json", "ground_expr_deep_json", "ground_scene_long_int",
        "ground_config_long_int", "bench_line_deep_json",
        "optimize_scene_id_parent_dir", "optimize_scene_id_absolute",
        *[f"{command}_{option[2:]}_taken" for command, option in OUTPUTS_TAKEN],
        *[f"{command}_{option[2:]}_no_parent" for command, option in OUTPUTS_WITHOUT_PARENT],
        "utterance_not_a_string",
        *[f"{option.replace(' --', '_').lstrip('-')}_{fault}" for option, fault in FAULTY_INPUTS],
        "parse_in_bad_line_3", "parse_in_no_entries", "registry_unknown_relation",
        "suite_unknown_relation", "config_unknown_key", "optimize_unknown_relation",
        "optimize_unknown_source", "config_utterance_number", "config_utterance_list",
        "config_offline_expr_number", "config_threshold_string", "config_top_k_null",
        "config_seed_bool", "config_source_list",
        *[f"config_{next(iter(row[2]))}_shadowed_by_flag" for row in SHADOWED]])
def test_malformed_input_exits_2(dataset, tmp_path, capsys, monkeypatch, build):
    # an endpoint the client never sends to (not http), so that a row that
    # reached the model would fail there and not at a missing setting
    monkeypatch.setenv("LASP_LLM_ENDPOINT", "stub://never-contacted")
    argv, where = build(dataset, tmp_path)
    capsys.readouterr()
    before = _file_bytes(tmp_path)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert where in err
    assert _file_bytes(tmp_path) == before  # inputs and earlier outputs are left as they were


def _file_bytes(root):
    """Each file under ``root`` by path, with its bytes."""
    return {path: path.read_bytes() for path in sorted(root.rglob("*")) if path.is_file()}


def test_a_plots_directory_gets_its_parents(dataset, tmp_path):
    plots = tmp_path / "new" / "plots"
    assert main(["bench", "--dataset", str(dataset), "--plots", str(plots)]) == 0
    assert (plots / "manifest.json").exists()


def test_output_paths_are_checked_before_the_run(tmp_path, capsys):
    """A ``--log`` that names a directory exits 2 before the search runs, so
    the registry file is left as it was."""
    suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
    registry = tmp_path / "registry.json"
    argv = ["optimize", "--relation", "near", "--suite", str(suite_path),
            "--scenes", str(scenes_dir), "--registry", str(registry), "--n-iter", "1"]
    assert main(argv) == 0
    before = registry.read_bytes()
    (tmp_path / "logdir").mkdir()
    assert main([*argv, "--seed", "1", "--log", str(tmp_path / "logdir")]) == 2
    assert "--log" in capsys.readouterr().err
    assert registry.read_bytes() == before


def test_optimize_with_llm_source_reports_usage_totals(tmp_path, capsys, monkeypatch):
    from sceneground.stub_server import StubServer

    suite_path, scenes_dir = make_near_suite_files(tmp_path, np.random.default_rng(0))
    reply = json.dumps(encoder_to_dsl("near").to_dict())
    with StubServer([reply]) as stub:
        monkeypatch.setenv("LASP_LLM_ENDPOINT", stub.base_url)
        assert main(["optimize", "--relation", "near", "--suite", str(suite_path),
                     "--scenes", str(scenes_dir), "--source", "llm", "--n-iter", "1",
                     "--n-sample", "2", "--registry", str(tmp_path / "registry.json")]) == 0
        assert stub.request_count == 2
    err = capsys.readouterr().err
    usage = [line for line in err.splitlines() if line.startswith("llm usage:")]
    assert len(usage) == 1
    fields = dict(part.split("=") for part in usage[0][len("llm usage: "):].split(", "))
    assert fields["calls"] == "2"
    assert int(fields["prompt_tokens"]) > 0
    assert fields["completion_tokens"] == str(2 * len(reply.split()))
    assert float(fields["wall_ms"]) > 0


def test_config_whole_float_is_an_integer(dataset, tmp_path, capsys):
    expr = tmp_path / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"top_k": 1.0}), encoding="utf-8")
    assert main(["ground", "--scene", str(dataset / "scenes" / "mini_prox.json"),
                 "--expr", str(expr), "--config", str(config_path)]) == 0
    result = json.loads(capsys.readouterr().out)
    assert result["candidates"] == [result["argmax"]]


def _value_errors() -> list[type]:
    """Every exception class a ``sceneground`` module defines that derives
    from ``ValueError``, by name."""
    found = {}
    for info in pkgutil.iter_modules(sceneground.__path__):
        module = importlib.import_module(f"sceneground.{info.name}")
        found.update((value.__name__, value) for value in vars(module).values()
                     if isinstance(value, type) and issubclass(value, ValueError)
                     and value.__module__ == module.__name__)
    return [found[name] for name in sorted(found)]


VALUE_ERRORS = _value_errors()


def test_every_value_error_of_the_package_is_an_input_error():
    """A loader's error class joins the exit-2 rule by deriving from
    ``InputError``; no list in the CLI names it."""
    assert {"CliError", "DatasetError", "DefinitionError", "ExpressionError", "RegistryError",
            "SceneError", "SuiteError"} <= {cls.__name__ for cls in VALUE_ERRORS}
    assert [cls.__name__ for cls in VALUE_ERRORS if not issubclass(cls, InputError)] == []


@pytest.mark.parametrize("error, code", [*((cls, 2) for cls in VALUE_ERRORS),
                                         (ExecutionError, 1)],
                         ids=[*(cls.__name__ for cls in VALUE_ERRORS), "ExecutionError"])
def test_main_exits_by_the_class_of_the_error(monkeypatch, capsys, error, code):
    """Each input error a subcommand raises exits 2, a runtime error 1, each
    with one ``error:`` line and no traceback."""

    def fail(args):
        raise error("the reason")

    monkeypatch.setattr("sceneground.cli.cmd_parse", fail)
    assert main(["parse"]) == code
    assert capsys.readouterr().err == "error: the reason\n"


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: MemoryError\n"),
    (MemoryError("Unable to allocate 7.45 GiB"), "error: Unable to allocate 7.45 GiB\n"),
], ids=["bare", "with_text"])
def test_running_out_of_memory_exits_1_with_one_line(monkeypatch, capsys, error, line):
    """A MemoryError is a runtime error: exit 1 with one ``error:`` line, its
    text or else its class name, and no traceback."""

    def exhaust(args):
        raise error

    monkeypatch.setattr("sceneground.cli.cmd_ground", exhaust)
    assert main(["ground"]) == 1
    err = capsys.readouterr().err
    assert err == line and "Traceback" not in err
