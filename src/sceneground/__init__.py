"""Training-free 3D visual grounding over box scenes.

Referring expressions are parsed into a symbolic form, spatial relations are
quantified by code-defined encoders over bounding-box geometry, and a
recursive executor ranks scene objects. Encoder candidates are expression
trees that can be mutated and optimized against triplet test suites.
"""

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
    ExampleGraph,
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
from .llm import (
    EndpointConfig,
    LlmClient,
    LlmError,
    PromptBundle,
    UsageLedger,
    assemble_prompt,
    parse_utterance_via_llm,
)
from .minibench import generate_mini_benchmark

__version__ = "0.1.0"
