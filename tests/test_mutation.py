import hashlib
import math
import struct
from collections import Counter

import numpy as np
import pytest

import sceneground.mutation as mutation
from sceneground.builtins import encoder_to_dsl
from sceneground.dsl import (
    EncoderDefinition,
    compile_definition,
    const,
    get,
    op,
    validate_definition,
)
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


def test_operator_draw_picks_by_the_kind_cdf():
    """The kind comes from one random() of the stream, on the CDF of the
    kind probabilities, and the stream goes on after that one draw."""
    kinds = ["const_scale", "op_swap", "wrap", "graft"]
    for seed in range(2_000):
        reference, fast = mutation._Draws(seed), mutation._Draws(seed)
        u = reference.random()
        expected = kinds[sum(u >= edge for edge in (0.45, 0.70, 0.75))]
        assert mutation._draw_kind(fast) == expected
        assert fast.random() == reference.random()


def test_scale_factor_takes_one_draw():
    """The factor is 0.5 + 1.5 * random() from one draw, the constant is
    picked by the next, and the stream goes on after those two."""
    body = op("add", const(1.0), op("mul", const(2.0), const(3.0)))
    root = compile_definition(EncoderDefinition(relation="large", body=body))
    for seed in range(2_000):
        reference, fast = mutation._Draws(seed), mutation._Draws(seed)
        (_, trail, _), (_, _, (factor, _)) = mutation._scale_constant(root, fast)
        assert factor["const"] == 0.5 + 1.5 * reference.random()
        assert 0.5 <= factor["const"] < 2.0
        assert trail[-1].node["const"] == (1.0, 2.0, 3.0)[reference.integers(3)]
        assert fast.integers(2**62) == reference.integers(2**62)


def _reference_words(seed, n):
    """The stream's first n words, from its definition: 32-byte blake2b
    digests of (seed, block) as little-endian 8-byte words, four words each."""
    words = []
    for block in range(-(-n // 4)):
        digest = hashlib.blake2b(struct.pack("<2Q", seed, block), digest_size=32).digest()
        words += struct.unpack("<4Q", digest)
    return words[:n]


def test_stream_known_answers():
    """The first draws of seeds 0 and 2**32 - 1, the fifth from the second
    block, pinned and rebuilt from the stream's definition."""
    pinned = {
        0: [0.5989315986014416, 0.7940320863948623, 8, 1093238742521, 0.5855151952449986],
        2**32 - 1: [0.9689309561701746, 0.24512883268796792, 1, 564000294197,
                    0.8845548643900898],
    }
    for seed, expected in pinned.items():
        draws = mutation._Draws(seed)
        got = [draws.random(), draws.random(), draws.integers(10), draws.integers(2**40),
               draws.random()]
        assert got == expected
        w = _reference_words(seed, 5)
        assert got == [(w[0] >> 11) / 2**53, (w[1] >> 11) / 2**53, (w[2] * 10) >> 64,
                       (w[3] * 2**40) >> 64, (w[4] >> 11) / 2**53]


def test_stream_draws_stay_in_range():
    for word in (0, 1, 2**63, 2**64 - 1):  # the extreme words, planted
        draws = mutation._Draws(0)
        draws._next = lambda: word
        assert 0.0 <= draws.random() < 1.0
        assert draws.integers(1) == 0
        assert 0 <= draws.integers(2**40) < 2**40
    draws = mutation._Draws(7)
    for _ in range(5_000):
        assert 0.0 <= draws.random() < 1.0
        assert draws.integers(1) == 0
        assert 0 <= draws.integers(2**40) < 2**40


def test_stream_rejects_bad_seeds_and_empty_ranges():
    for seed in (-1, -2**40, 2**64):
        with pytest.raises(ValueError, match="seed must be in"):
            mutation._Draws(seed)
        with pytest.raises(ValueError, match="seed must be in"):
            mutate_definition(encoder_to_dsl("near"), seed)
    draws = mutation._Draws(0)
    for n in (0, -1):
        with pytest.raises(ValueError, match="n >= 1"):
            draws.integers(n)


def test_kind_frequencies_follow_the_kind_probabilities():
    """Over 20k seeds each kind's share is within four standard errors of
    its probability (0.0141 for the 0.45 kind, 0.0062 for the 0.05 kind)."""
    n = 20_000
    counts = Counter(mutation._draw_kind(mutation._Draws(seed)) for seed in range(n))
    for kind, p in zip(mutation._KINDS, mutation._KIND_P):
        assert abs(counts[kind] / n - p) <= 4 * math.sqrt(p * (1 - p) / n), kind


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
