"""The package loads only what a run uses, and keeps every public name.

``sceneground`` resolves the LLM client's names and the mini-benchmark
generator on first use, and the CLI imports the LLM client only in the
subcommands that call it. These tests pin the names the package binds and
the modules a ``ground`` or ``bench`` process leaves unloaded.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sceneground
from sceneground.minibench import generate_mini_benchmark

SRC = Path(__file__).resolve().parent.parent / "src"

# every name ``import sceneground`` bound when the package imported each module eagerly
NAMES = (
    "ALL_RELATIONS", "BoundingBox", "CandidateReport", "CategoryFeature", "DefinitionError",
    "EncoderDefinition", "EncoderRegistry", "EndpointConfig", "ExampleGraph", "ExecutionError",
    "ExpressionError", "FeatureCache", "LlmClient", "LlmError", "MatchingScore", "MutationSource",
    "OptimizerConfig", "PairGeometry", "PromptBundle", "RelationClause", "RelationFeature",
    "Scene", "SceneError", "SceneObject", "SimilarityTable", "SymbolicExpression", "TestCase",
    "TestSuite", "UsageLedger", "assemble_prompt", "atomic", "builtins", "collect_conditions",
    "condition_level_eval", "default_example_graph", "dsl", "encoder_to_dsl", "eval_encoder",
    "execute", "executor", "expression", "generate_mini_benchmark", "grounding_result", "llm",
    "load_definition", "load_registry", "load_scene", "minibench", "mutate_definition",
    "mutation", "optimize_encoder", "optimizer", "parse_expression", "parse_utterance_via_llm",
    "precompute_geometry", "rank_candidates", "registry", "retrieve_example", "run_test_suite",
    "save_definition", "save_registry", "save_scene", "scene", "select_top_k",
    "serialize_expression", "synthesize_error_message", "validate_definition", "__version__",
)

# name -> the submodule it resolves from on first use
LAZY = {
    **dict.fromkeys(("EndpointConfig", "LlmClient", "LlmError", "PromptBundle", "UsageLedger",
                     "assemble_prompt", "parse_utterance_via_llm"), "llm"),
    "generate_mini_benchmark": "minibench",
}

UNUSED_BY_GROUND_AND_BENCH = ("sceneground.llm", "sceneground.minibench", "logging", "csv",
                              "concurrent.futures")


def _run_fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports the package from source."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_every_name_the_package_bound_still_resolves():
    assert [name for name in NAMES if not hasattr(sceneground, name)] == []


def test_each_lazy_name_is_its_modules_attribute():
    for name, module in LAZY.items():
        assert getattr(sceneground, name) is getattr(
            importlib.import_module(f"sceneground.{module}"), name), name
    assert sceneground.llm is importlib.import_module("sceneground.llm")
    assert sceneground.minibench is importlib.import_module("sceneground.minibench")


def test_lazy_names_import_in_a_fresh_interpreter():
    out = _run_fresh(
        "import sys; from sceneground import LlmClient, generate_mini_benchmark; "
        "print(LlmClient is sys.modules['sceneground.llm'].LlmClient, "
        "generate_mini_benchmark is sys.modules['sceneground.minibench'].generate_mini_benchmark)")
    assert out.split() == ["True", "True"]


def test_dir_lists_the_lazy_names():
    listed = set(dir(sceneground))
    assert [name for name in NAMES if name not in listed] == []
    assert set(LAZY) <= listed


def test_an_unknown_name_is_an_attribute_error_naming_the_module():
    with pytest.raises(AttributeError, match="module 'sceneground' has no attribute 'nowhere'"):
        sceneground.nowhere  # noqa: B018


def test_ground_and_bench_load_neither_the_llm_client_nor_unused_stdlib(tmp_path):
    dataset = tmp_path / "dataset"
    generate_mini_benchmark(dataset, seed=7)
    first = json.loads((dataset / "expressions.jsonl").read_text(encoding="utf-8").splitlines()[0])
    expr = tmp_path / "expr.json"
    expr.write_text(json.dumps(first["expression"]), encoding="utf-8")
    ground = ["ground", "--scene", str(dataset / "scenes" / f"{first['scene_id']}.json"),
              "--expr", str(expr), "--out", str(tmp_path / "ground.json")]
    bench = ["bench", "--dataset", str(dataset), "--out", str(tmp_path / "bench.json")]
    out = _run_fresh(
        "import json, sys; from sceneground.cli import main; "
        f"codes = [main({ground!r}), main({bench!r})]; "
        f"print(json.dumps([codes, [m for m in {UNUSED_BY_GROUND_AND_BENCH!r} "
        "if m in sys.modules]]))")
    codes, loaded = json.loads(out)
    assert codes == [0, 0]
    assert loaded == []
    assert json.loads((tmp_path / "ground.json").read_text(encoding="utf-8"))
    assert json.loads((tmp_path / "bench.json").read_text(encoding="utf-8"))["records"]
