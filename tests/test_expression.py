import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sceneground.expression import (
    ALL_RELATIONS,
    ExpressionError,
    RelationClause,
    SymbolicExpression,
    collect_conditions,
    normalize_relation_name,
    parse_expression,
    relation_arity,
    serialize_expression,
)

CHAIR_NEAR_TABLE = (
    '{"category": "chair", "relations":'
    ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}'
)


def test_parse_chair_near_table():
    expr = parse_expression(CHAIR_NEAR_TABLE)
    assert expr.category == "chair"
    assert len(expr.relations) == 1
    clause = expr.relations[0]
    assert clause.relation == "near"
    assert clause.negative is False
    assert len(clause.anchors) == 1
    assert clause.anchors[0].category == "table"
    assert clause.anchors[0].relations == ()


def test_relations_default_empty():
    expr = parse_expression('{"category": "lamp"}')
    assert expr.category == "lamp"
    assert expr.relations == ()


def test_unknown_relation_lists_closed_set():
    bad = ('{"category": "bed", "relations":'
           ' [{"relation_name": "hovering", "anchors": [{"category": "desk"}]}]}')
    with pytest.raises(ExpressionError) as err:
        parse_expression(bad)
    for name in ("near", "between", "at_the_corner"):
        assert name in str(err.value)


def test_arity_mismatch_rejected():
    bad = ('{"category": "bed", "relations":'
           ' [{"relation_name": "between", "anchors": [{"category": "desk"}]}]}')
    with pytest.raises(ExpressionError, match="2 anchor"):
        parse_expression(bad)


def test_missing_category_rejected():
    with pytest.raises(ExpressionError, match="category"):
        parse_expression('{"relations": []}')


def test_malformed_json_rejected():
    with pytest.raises(ExpressionError, match="line 1"):
        parse_expression('{"category": ')


@pytest.mark.parametrize("text", ["[1, 2]", '"chair"', "5", "null"])
def test_a_non_object_top_level_reads_as_in_an_input_file(text):
    """parse_expression words this fault as load_json and load_lines do,
    without their PATH: prefix."""
    with pytest.raises(ExpressionError) as info:
        parse_expression(text)
    assert str(info.value) == "top level must be a JSON object"


def test_anchors_key_preferred_but_objects_accepted():
    via_objects = parse_expression(CHAIR_NEAR_TABLE)
    via_anchors = parse_expression(
        '{"category": "chair", "relations":'
        ' [{"relation_name": "near", "anchors": [{"category": "table"}]}]}'
    )
    assert via_objects == via_anchors
    # canonical output always uses "anchors"
    assert '"anchors"' in serialize_expression(via_objects)
    assert '"objects"' not in serialize_expression(via_objects)


def test_relation_name_normalization():
    for spelling in ("On The Floor", "on the floor", "on-the-floor", "ON_THE_FLOOR"):
        expr = parse_expression(json.dumps(
            {"category": "box", "relations": [{"relation_name": spelling}]}))
        assert expr.relations[0].relation == "on_the_floor"
    assert normalize_relation_name("  Left ") == "left"


def test_arity_table_matches_classification():
    assert {r: relation_arity(r) for r in ALL_RELATIONS} == {
        "large": 1, "small": 1, "high": 1, "low": 1,
        "on_the_floor": 1, "against_the_wall": 1, "at_the_corner": 1,
        "near": 2, "far": 2, "above": 2, "below": 2,
        "left": 2, "right": 2, "front": 2, "behind": 2,
        "between": 3,
    }


def test_depth_cap_rejects_pathological_nesting():
    inner: dict = {"category": "c0"}
    for k in range(1, 12):
        inner = {"category": f"c{k}",
                 "relations": [{"relation_name": "near", "anchors": [inner]}]}
    with pytest.raises(ExpressionError, match="depth"):
        parse_expression(json.dumps(inner))


def test_negative_serialized_explicitly():
    expr = SymbolicExpression(category="chair", relations=(
        RelationClause(relation="near",
                       anchors=(SymbolicExpression(category="table"),),
                       negative=True),
    ))
    text = serialize_expression(expr)
    assert '"negative": true' in text
    assert parse_expression(text) == expr


def _random_tree(rng: np.random.Generator, depth: int) -> SymbolicExpression:
    clauses = []
    if depth > 1:
        for _ in range(int(rng.integers(0, 3))):
            name = ALL_RELATIONS[int(rng.integers(len(ALL_RELATIONS)))]
            anchors = tuple(_random_tree(rng, depth - 1)
                            for _ in range(relation_arity(name) - 1))
            clauses.append(RelationClause(relation=name, anchors=anchors,
                                          negative=bool(rng.random() < 0.3)))
    return SymbolicExpression(category=f"cat{int(rng.integers(40))}",
                              relations=tuple(clauses))


def test_roundtrip_random_trees():
    rng = np.random.default_rng(42)
    for _ in range(300):
        tree = _random_tree(rng, depth=int(rng.integers(1, 5)))
        assert parse_expression(serialize_expression(tree)) == tree


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_roundtrip_property(seed):
    rng = np.random.default_rng(seed)
    tree = _random_tree(rng, depth=int(rng.integers(1, 5)))
    assert parse_expression(serialize_expression(tree)) == tree


def test_collect_conditions_simple():
    expr = parse_expression(CHAIR_NEAR_TABLE)
    conditions = collect_conditions(expr)
    assert len(conditions) == 1
    category, clause = conditions[0]
    assert category == "chair"
    assert clause.relation == "near"


def test_collect_conditions_empty():
    assert collect_conditions(parse_expression('{"category": "lamp"}')) == []


def test_collect_conditions_depth_first_order():
    # chair near (table left-of door), chair behind sofa: 3 clauses total
    expr = parse_expression(json.dumps({
        "category": "chair",
        "relations": [
            {"relation_name": "near", "anchors": [
                {"category": "table", "relations": [
                    {"relation_name": "left", "anchors": [{"category": "door"}]},
                ]},
            ]},
            {"relation_name": "behind", "anchors": [{"category": "sofa"}]},
        ],
    }))
    conditions = collect_conditions(expr)
    assert [(cat, clause.relation) for cat, clause in conditions] == [
        ("chair", "near"),
        ("table", "left"),
        ("chair", "behind"),
    ]


_CLAUSE_AT = "$.relations[1].anchors[0].relations[0]"
_ANCHOR_AT = _CLAUSE_AT + ".anchors[0]"
_KNOWN = ("large, small, high, low, on_the_floor, against_the_wall, at_the_corner, "
          "near, far, above, below, left, right, front, behind, between")


def _nested(depth: int) -> dict:
    """An expression whose innermost node sits ``depth`` levels below its root."""
    node: dict = {"category": "lamp"}
    for _ in range(depth):
        node = {"category": "box", "relations": [{"relation_name": "near", "anchors": [node]}]}
    return node


@pytest.mark.parametrize("clause, expected", [
    ("near", f"{_CLAUSE_AT}: clause must be an object"),
    ({"anchors": []}, f"{_CLAUSE_AT}: missing relation_name"),
    ({"relation_name": "beside"}, f"{_CLAUSE_AT}: unknown relation 'beside'; "
                                  f"known relations: {_KNOWN}"),
    ({"relation_name": "near", "anchors": {"category": "lamp"}},
     f"{_CLAUSE_AT}: anchors must be a list"),
    ({"relation_name": "near", "anchors": [{"category": "lamp"}], "negative": 1},
     f"{_CLAUSE_AT}: negative must be a boolean"),
    ({"relation_name": "Between", "anchors": [{"category": "lamp"}]},
     f"{_CLAUSE_AT}: relation 'between' takes 2 anchor(s), got 1"),
    ({"relation_name": "near", "anchors": [7]}, f"{_ANCHOR_AT}: expected an object"),
    ({"relation_name": "near", "anchors": [{"category": " "}]},
     f"{_ANCHOR_AT}: missing category"),
    ({"relation_name": "near", "anchors": [{"category": "lamp", "relations": {}}]},
     f"{_ANCHOR_AT}: relations must be a list"),
    ({"relation_name": "near", "anchors": [_nested(6)]},
     _ANCHOR_AT + ".relations[0].anchors[0]" * 6 + ": expression nesting exceeds depth 8"),
    ({"relation_name": 5}, f"{_CLAUSE_AT}: relation_name must be a string"),
    ({"relation": ["near"]}, f"{_CLAUSE_AT}: relation must be a string"),
])
def test_parser_error_texts_name_the_nested_path(clause, expected):
    raw = {"category": "chair", "relations": [
        {"relation_name": "large"},
        {"relation_name": "near", "anchors": [{"category": "table", "relations": [clause]}]},
    ]}
    with pytest.raises(ExpressionError) as info:
        parse_expression(json.dumps(raw))
    assert str(info.value) == expected
