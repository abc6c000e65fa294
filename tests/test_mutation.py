import numpy as np

import sceneground.mutation as mutation
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import EncoderDefinition, compile_definition, get, op, validate_definition
from sceneground.expression import ALL_RELATIONS
from sceneground.mutation import mutate_definition

from oracles import reference_validate


def test_mutation_changes_serialized_form():
    base = encoder_to_dsl("near")
    for seed in range(50):
        mutated = mutate_definition(base, seed)
        assert mutated.canonical_json() != base.canonical_json()
        assert mutated.relation == "near"


def test_mutation_is_deterministic():
    base = encoder_to_dsl("above")
    for seed in (0, 1, 17, 123456):
        a = mutate_definition(base, seed)
        b = mutate_definition(base, seed)
        assert a == b


def test_thousand_seeded_mutations_of_above_all_validate():
    base = encoder_to_dsl("above")
    for seed in range(1000):
        validate_definition(mutate_definition(base, seed))


def test_mutations_of_every_arity_validate():
    for relation in ("large", "near", "between"):
        base = encoder_to_dsl(relation)
        for seed in range(100):
            validate_definition(mutate_definition(base, seed))


def test_mutation_chains_stay_valid():
    rng = np.random.default_rng(0)
    for relation in ALL_RELATIONS:
        defn = encoder_to_dsl(relation)
        for _ in range(15):
            defn = mutate_definition(defn, int(rng.integers(2**31)))
            validate_definition(defn)


def test_constant_scaling_fallback_on_constless_tree():
    # near's tree has no const leaf; the fallback must still change something
    base = encoder_to_dsl("near")
    seen = {mutate_definition(base, seed).canonical_json() for seed in range(20)}
    assert len(seen) > 1


def test_operator_draw_picks_what_rng_choice_picks():
    """The kind comes from one rng.random() on the CDF that rng.choice
    searches: the same kind, and the stream left where rng.choice left it."""
    kinds = ["const_scale", "op_swap", "wrap", "graft"]
    for seed in range(10_000):
        reference, fast = np.random.default_rng(seed), np.random.default_rng(seed)
        expected = kinds[int(reference.choice(4, p=[0.45, 0.25, 0.05, 0.25]))]
        assert mutation._draw_kind(fast) == expected
        assert fast.random() == reference.random()


def _capped_bases():
    """Valid bases that most changes overflow: a constant near the float
    limit, a depth-64 chain of abs and a 511-node tree of sub, the last two
    with no constant to scale and no operator to swap."""
    chain = wide = get("volume", "i")
    for _ in range(63):
        chain = op("abs", chain)
    for _ in range(8):
        wide = op("sub", wide, wide)
    return [EncoderDefinition(relation="large", body=body)
            for body in ({"const": 1.7e308}, chain, wide)]


def test_mutation_never_raises_on_a_valid_base():
    for base in _capped_bases():
        for seed in range(200):
            child = mutate_definition(base, seed)
            fresh = EncoderDefinition(relation=child.relation, body=child.body)
            reference_validate(fresh)
            compile_definition(fresh)
            assert child.digest() != base.digest()
