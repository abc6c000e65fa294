"""Seeded structural mutation of encoder definitions.

This is the offline candidate generator: it perturbs a definition by scaling
a constant, swapping a commutative operator, inserting a wrapper, or grafting
a subtree from the builtin library. Every mutation is deterministic for a
given seed and always yields a definition that passes validation.

Bodies are never mutated in place. A mutation copies only the nodes on the
path from the root to the changed node and shares every untouched subtree
with its parent (and grafts share nodes with the builtin pool), so a
mutation copies as many nodes as the change is deep, not the whole tree.
"""

from __future__ import annotations

import numpy as np

from .builtins import builtin_definitions
from .dsl import (
    COMMUTATIVE_SWAPS,
    OBJS_FOR_ARITY,
    DefinitionError,
    EncoderDefinition,
    const,
    op,
    validate_definition,
)
from .expression import relation_arity

__all__ = ["mutate_definition"]

Path = tuple[int, ...]
Nodes = list[tuple[Path, dict]]  # every (path, node) of a body, depth first


def _walk(node: dict, path: Path, out: Nodes) -> None:
    out.append((path, node))
    for k, child in enumerate(node.get("args", [])):
        _walk(child, path + (k,), out)


def _all_nodes(body: dict) -> Nodes:
    out: Nodes = []
    _walk(body, (), out)
    return out


def _node_at(body: dict, path: Path) -> dict:
    node = body
    for k in path:
        node = node["args"][k]
    return node


def _replace_at(body: dict, path: Path, new_node: dict) -> dict:
    """Copy of ``body`` with the node at ``path`` replaced; only the nodes on
    the path are copied, every other subtree is shared."""
    if not path:
        return new_node
    args = list(body["args"])
    args[path[0]] = _replace_at(args[path[0]], path[1:], new_node)
    return {**body, "args": args}


def _objects_used(node: dict) -> set[str]:
    used: set[str] = set()
    for _, n in _all_nodes(node):
        if "get" in n:
            used.add(n["obj"])
    return used


_POOL_CACHE: dict[frozenset[str], list[dict]] = {}


def _graft_pool(allowed_objs: set[str]) -> list[dict]:
    """Subtrees of builtin bodies whose accessors fit the target arity."""
    key = frozenset(allowed_objs)
    if key not in _POOL_CACHE:
        pool: list[dict] = []
        for defn in builtin_definitions().values():
            for _, node in _all_nodes(defn.body):
                if _objects_used(node) <= allowed_objs:
                    pool.append(node)
        _POOL_CACHE[key] = pool
    return _POOL_CACHE[key]


def _scale_constant(body: dict, nodes: Nodes, rng: np.random.Generator) -> dict:
    factor = float(rng.uniform(0.5, 2.0))
    const_paths = [path for path, node in nodes if "const" in node]
    if const_paths:
        path = const_paths[int(rng.integers(len(const_paths)))]
        old = _node_at(body, path)["const"]
        new = old * factor
        if new == old:
            new = old + (factor - 1.0) or old + 0.5
        return _replace_at(body, path, const(new))
    # no constants anywhere: scale a random subtree instead
    paths = [path for path, _ in nodes]
    path = paths[int(rng.integers(len(paths)))]
    return _replace_at(body, path, op("mul", _node_at(body, path), const(factor)))


def _swap_operator(body: dict, nodes: Nodes, rng: np.random.Generator) -> dict | None:
    swappable = [path for path, node in nodes if node.get("op") in COMMUTATIVE_SWAPS]
    if not swappable:
        return None
    path = swappable[int(rng.integers(len(swappable)))]
    node = _node_at(body, path)
    return _replace_at(body, path, {**node, "op": COMMUTATIVE_SWAPS[node["op"]]})


def _insert_wrapper(body: dict, nodes: Nodes, rng: np.random.Generator) -> dict:
    paths = [path for path, _ in nodes]
    path = paths[int(rng.integers(len(paths)))]
    target = _node_at(body, path)
    if int(rng.integers(2)) == 0:
        wrapped = op("exp", op("neg", target))
    else:
        wrapped = op("abs", target)
    return _replace_at(body, path, wrapped)


def _graft_subtree(body: dict, nodes: Nodes, rng: np.random.Generator,
                   allowed_objs: set[str]) -> dict | None:
    pool = _graft_pool(allowed_objs)
    if not pool:
        return None
    source = pool[int(rng.integers(len(pool)))]
    paths = [path for path, _ in nodes]
    path = paths[int(rng.integers(len(paths)))]
    return _replace_at(body, path, source)


def mutate_definition(defn: EncoderDefinition, seed: int) -> EncoderDefinition:
    """Return a valid definition differing from ``defn`` in at least one node;
    its check is memoized with its DAG, so scoring it walks the body no more."""
    rng = np.random.default_rng(seed)
    allowed = set(OBJS_FOR_ARITY[relation_arity(defn.relation)])
    original = defn.digest()

    kinds = ["const_scale", "op_swap", "wrap", "graft"]
    # constant rescaling repairs continuously and carries the hill climb, so
    # it gets the largest share; wrappers rarely help and stay rare
    kind = kinds[int(rng.choice(4, p=[0.45, 0.25, 0.05, 0.25]))]
    nodes = _all_nodes(defn.body)
    body: dict | None = None
    if kind == "op_swap":
        body = _swap_operator(defn.body, nodes, rng)
    elif kind == "wrap":
        body = _insert_wrapper(defn.body, nodes, rng)
    elif kind == "graft":
        body = _graft_subtree(defn.body, nodes, rng, allowed)
    if body is None:
        kind = "const_scale"
        body = _scale_constant(defn.body, nodes, rng)

    candidate = EncoderDefinition(relation=defn.relation, body=body,
                                  metadata=f"mutated[{kind}, seed={seed}]")
    try:
        validate_definition(candidate)
        changed = candidate.digest() != original
    except DefinitionError:
        changed = False
    if not changed:
        # graft may reproduce the original or overflow the caps: scale instead
        body = _scale_constant(defn.body, nodes, rng)
        candidate = EncoderDefinition(relation=defn.relation, body=body,
                                      metadata=f"mutated[const_scale, seed={seed}]")
        validate_definition(candidate)
    return candidate
