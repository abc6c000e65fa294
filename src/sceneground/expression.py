"""JSON-based symbolic expression language for referring utterances.

An expression names a target category and constrains it with relation
clauses; each clause anchors on nested sub-expressions. A relation is
declared by its row in :data:`RELATIONS`, which holds its arity and its
in-context example; every other list of relations derives from that table.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .atomic import InputError, decode_object
from .scene import normalize_label

__all__ = [
    "ExpressionError",
    "RelationSpec",
    "RELATIONS",
    "ALL_RELATIONS",
    "relation_arity",
    "normalize_relation_name",
    "RelationClause",
    "SymbolicExpression",
    "parse_expression",
    "expression_from_dict",
    "expression_to_dict",
    "serialize_expression",
    "collect_conditions",
    "collect_categories",
]


@dataclass(frozen=True)
class RelationSpec:
    """A relation's row: its arity (1 unary, 2 binary, 3 ternary) and the
    relation whose accepted encoder is its in-context example, if any."""

    arity: int
    example: str | None = None


# The relation set U, in builtin and registry-file order. An ``example`` edge
# A -> B pairs similar relations: A's encoder is the in-context example for B.
RELATIONS = {
    "large": RelationSpec(1),
    "small": RelationSpec(1, example="large"),
    "high": RelationSpec(1),
    "low": RelationSpec(1, example="high"),
    "on_the_floor": RelationSpec(1, example="against_the_wall"),
    "against_the_wall": RelationSpec(1),
    "at_the_corner": RelationSpec(1),
    "near": RelationSpec(2),
    "far": RelationSpec(2, example="near"),
    "above": RelationSpec(2),
    "below": RelationSpec(2, example="above"),
    "left": RelationSpec(2),
    "right": RelationSpec(2, example="left"),
    "front": RelationSpec(2),
    "behind": RelationSpec(2, example="front"),
    "between": RelationSpec(3, example="near"),
}
ALL_RELATIONS = tuple(RELATIONS)

MAX_DEPTH = 8


class ExpressionError(InputError):
    """Raised for malformed symbolic expressions."""


def normalize_relation_name(name: str) -> str:
    """Unify spacing so e.g. "On the Floor" matches "on_the_floor"."""
    return "_".join(name.casefold().replace("-", " ").replace("_", " ").split())


def relation_arity(name: str) -> int:
    """Arity of a canonical relation name (1, 2 or 3)."""
    try:
        return RELATIONS[name].arity
    except KeyError:
        raise ExpressionError(
            f"unknown relation {name!r}; known relations: {', '.join(ALL_RELATIONS)}"
        ) from None


@dataclass(frozen=True)
class RelationClause:
    """One spatial constraint: a relation, its anchors, and an optional negation."""

    relation: str
    anchors: tuple["SymbolicExpression", ...] = ()
    negative: bool = False

    def __post_init__(self) -> None:
        arity = relation_arity(self.relation)
        if len(self.anchors) != arity - 1:
            raise ExpressionError(
                f"relation {self.relation!r} takes {arity - 1} anchor(s), "
                f"got {len(self.anchors)}"
            )


@dataclass(frozen=True)
class SymbolicExpression:
    """Target category plus relation clauses; anchors recurse.

    :func:`expression_from_dict` checks that each category is not empty or
    only whitespace.
    """

    category: str
    relations: tuple[RelationClause, ...] = ()


def _path(where: tuple | None) -> str:
    """A node's path, such as ``$.relations[1].anchors[0]``, from its
    ``(parent, key, index)`` chain (None at the root); rendered only for an
    error message."""
    steps = []
    while where is not None:
        where, key, k = where
        steps.append(f".{key}[{k}]")
    return "$" + "".join(reversed(steps))


def _clause_from_dict(raw: object, depth: int, where: tuple) -> RelationClause:
    if not isinstance(raw, dict):
        raise ExpressionError(f"{_path(where)}: clause must be an object")
    # "relation" and "objects" are the wire format's other names for these
    # keys, read only when the first name is absent (a null value is kept)
    name = raw.get("relation_name")
    if name is None and "relation_name" not in raw:
        name = raw.get("relation")
    if not isinstance(name, str):
        key = "relation_name" if "relation_name" in raw else "relation"
        fault = "missing relation_name" if name is None else f"{key} must be a string"
        raise ExpressionError(f"{_path(where)}: {fault}")
    canonical = name if name in RELATIONS else normalize_relation_name(name)
    if canonical not in RELATIONS:
        raise ExpressionError(f"{_path(where)}: unknown relation {name!r}; "
                              f"known relations: {', '.join(ALL_RELATIONS)}")
    anchors_raw = raw.get("anchors")
    if anchors_raw is None and "anchors" not in raw:
        anchors_raw = raw.get("objects", [])
    if not isinstance(anchors_raw, list):
        raise ExpressionError(f"{_path(where)}: anchors must be a list")
    anchors = tuple([_expr_from_dict(a, depth + 1, (where, "anchors", k))
                     for k, a in enumerate(anchors_raw)])
    negative = raw.get("negative", False)
    if not isinstance(negative, bool):
        raise ExpressionError(f"{_path(where)}: negative must be a boolean")
    try:
        return RelationClause(relation=canonical, anchors=anchors, negative=negative)
    except ExpressionError as exc:  # the clause's arity check
        raise ExpressionError(f"{_path(where)}: {exc}") from None


def _expr_from_dict(raw: object, depth: int, where: tuple | None) -> SymbolicExpression:
    """The expression at ``where``, a ``(parent, key, index)`` chain or None
    at the root (see :func:`_path`)."""
    if depth > MAX_DEPTH:
        raise ExpressionError(f"{_path(where)}: expression nesting exceeds depth {MAX_DEPTH}")
    if not isinstance(raw, dict):
        raise ExpressionError(f"{_path(where)}: expected an object")
    category = raw.get("category")
    if not isinstance(category, str) or not normalize_label(category):
        raise ExpressionError(f"{_path(where)}: missing category")
    relations_raw = raw.get("relations")
    if relations_raw is None and "relations" not in raw:
        return SymbolicExpression(category=category)
    if not isinstance(relations_raw, list):
        raise ExpressionError(f"{_path(where)}: relations must be a list")
    clauses = tuple([_clause_from_dict(c, depth, (where, "relations", k))
                     for k, c in enumerate(relations_raw)])
    return SymbolicExpression(category=category, relations=clauses)


def expression_from_dict(raw: object) -> SymbolicExpression:
    """Check and build an expression from its wire-format dict.

    A fault raises :class:`ExpressionError` naming the node's path, such as
    ``$.relations[1].anchors[0]``; a node's category, its clauses' relation
    names, anchor lists, negation flags and arities are checked in that
    order, and an anchor's faults come before its clause's flag."""
    return _expr_from_dict(raw, 1, None)


def parse_expression(text: str) -> SymbolicExpression:
    """Parse and validate the expression wire format."""
    return decode_object(text, ExpressionError, expression_from_dict)


def expression_to_dict(expr: SymbolicExpression) -> dict:
    """Canonical dict: keys category, relations; clause keys relation_name, anchors, negative."""
    return {
        "category": expr.category,
        "relations": [
            {
                "relation_name": clause.relation,
                "anchors": [expression_to_dict(a) for a in clause.anchors],
                "negative": clause.negative,
            }
            for clause in expr.relations
        ],
    }


def serialize_expression(expr: SymbolicExpression) -> str:
    """Canonical one-line JSON; parse(serialize(x)) structurally equals x."""
    return json.dumps(expression_to_dict(expr), ensure_ascii=False)


def collect_conditions(expr: SymbolicExpression) -> list[tuple[str, RelationClause]]:
    """Flatten to (target-category, clause) pairs, depth-first, root first."""
    out: list[tuple[str, RelationClause]] = []
    for clause in expr.relations:
        out.append((expr.category, clause))
        for anchor in clause.anchors:
            out.extend(collect_conditions(anchor))
    return out


def collect_categories(expr: SymbolicExpression) -> list[str]:
    """Every node's category, anchors included, depth-first, root first."""
    out = [expr.category]
    for clause in expr.relations:
        for anchor in clause.anchors:
            out.extend(collect_categories(anchor))
    return out
