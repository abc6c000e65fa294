"""Training-free 3D visual grounding over box scenes.

Referring expressions are parsed into a symbolic form, spatial relations are
quantified by code-defined encoders over bounding-box geometry, and a
recursive executor ranks scene objects. Encoder candidates are expression
trees that can be mutated and optimized against triplet test suites.

Importing the package loads the modules that grounding and the encoder
search use. The LLM client's names (``EndpointConfig``,
``LlmClient``, ``LlmError``, ``PromptBundle``, ``UsageLedger``,
``assemble_prompt``, ``parse_utterance_via_llm``) and
``generate_mini_benchmark``, and the ``llm`` and ``minibench`` submodules
themselves, resolve on first use through the module ``__getattr__`` (PEP
562): a process that never names them never runs ``llm`` or ``minibench``.
"""

from .atomic import InputError
from .scene import (
    BoundingBox,
    PairGeometry,
    Scene,
    SceneError,
    SceneObject,
    SimilarityTable,
    load_scene,
    precompute_geometry,
    save_scene,
)
from .expression import (
    ALL_RELATIONS,
    ExpressionError,
    RelationClause,
    SymbolicExpression,
    collect_conditions,
    parse_expression,
    serialize_expression,
)
from .dsl import (
    DefinitionError,
    EncoderDefinition,
    RelationFeature,
    eval_encoder,
    load_definition,
    save_definition,
    validate_definition,
)
from .builtins import encoder_to_dsl
from .mutation import mutate_definition
from .registry import EncoderRegistry, load_registry, save_registry
from .executor import (
    CategoryFeature,
    ExecutionError,
    FeatureCache,
    MatchingScore,
    condition_level_eval,
    execute,
    grounding_result,
    rank_candidates,
)
from .optimizer import (
    CandidateReport,
    MutationSource,
    OptimizerConfig,
    TestCase,
    TestSuite,
    default_example_graph,
    optimize_encoder,
    retrieve_example,
    run_test_suite,
    select_top_k,
    synthesize_error_message,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported when the name is first read
_LAZY = {
    **dict.fromkeys(("EndpointConfig", "LlmClient", "LlmError", "PromptBundle", "UsageLedger",
                     "assemble_prompt", "parse_utterance_via_llm"), "llm"),
    "generate_mini_benchmark": "minibench",
}


def __getattr__(name: str):
    import importlib

    if name in _LAZY.values():  # the submodule itself; importing it binds it here
        return importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_LAZY.values()})
