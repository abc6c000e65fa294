"""Seeded structural mutation of encoder definitions.

This is the offline candidate generator: it perturbs a definition by scaling
a constant, swapping a commutative operator, inserting a wrapper, or grafting
a subtree from the builtin library. Every mutation is deterministic for a
given seed and always yields a definition that passes validation.

Bodies are never mutated in place. A mutation copies only the nodes on the
path from the root to the changed node and shares every untouched subtree
with its parent (and grafts share nodes with the builtin pool), so a
mutation copies as many nodes as the change is deep, not the whole tree.

A mutation costs its changed path, not its tree. The node to change is
found by descending the base's node summaries (:class:`~sceneground.dsl.
NodeSummary`), which count each subtree's nodes, constants and swappable
operators, straight to the k-th qualifying node in depth-first order
(repeats counted), in as many steps as that node is deep. The child is
checked with a table of the base's summaries of the objects its new path
shares, so checking it and serializing it for the digest touch only the new
path. No DAG is built for it: a search scores it on a memo of subtree values
by text (:func:`~sceneground.dsl.eval_gathered`), where it evaluates only
its new path too.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import attrgetter

import numpy as np

from .builtins import builtin_definitions
from .dsl import (
    COMMUTATIVE_SWAPS,
    DefinitionError,
    EncoderDefinition,
    NodeSummary,
    compile_definition,
    const,
    op,
)

__all__ = ["mutate_definition"]

Path = tuple[int, ...]
# a change: the path to the picked node, the summaries from the root to it,
# the node that replaces it, and summaries of other objects that node reuses
Change = tuple[Path, list[NodeSummary], dict, tuple[NodeSummary, ...]]

_NODES, _CONSTS, _SWAPS = attrgetter("size"), attrgetter("consts"), attrgetter("swaps")

# constant rescaling repairs continuously and carries the hill climb, so it
# gets the largest share; wrappers rarely help and stay rare
_KINDS = ("const_scale", "op_swap", "wrap", "graft")
_KIND_P = np.array([0.45, 0.25, 0.05, 0.25])
# the CDF that ``rng.choice(4, p=_KIND_P)`` searches with one rng.random()
_KIND_CDF = tuple((_KIND_P.cumsum() / _KIND_P.cumsum()[-1]).tolist())


def _draw_kind(rng: np.random.Generator) -> str:
    """The mutation kind ``rng.choice(4, p=_KIND_P)`` would pick, from the
    same single draw of the stream, at a tenth of its cost."""
    return _KINDS[bisect_right(_KIND_CDF, rng.random())]


def _descend(root: NodeSummary, count, k: int) -> tuple[Path, list[NodeSummary]]:
    """Path to the k-th node that ``count`` counts, in depth-first order with
    repeats, and the summaries from the root to it."""
    path: list[int] = []
    trail = [root]
    node = root
    while True:
        own = count(node) - sum(count(child) for child in node.args)
        if k < own:
            return tuple(path), trail
        k -= own
        for pos, child in enumerate(node.args):
            if k < count(child):
                break
            k -= count(child)
        path.append(pos)
        trail.append(child)
        node = child


def _pick(root: NodeSummary, count, rng: np.random.Generator) -> tuple[Path, list[NodeSummary]]:
    return _descend(root, count, int(rng.integers(count(root))))


def _replace_at(body: dict, path: Path, new_node: dict) -> dict:
    """Copy of ``body`` with the node at ``path`` replaced; only the nodes on
    the path are copied, every other subtree is shared."""
    if not path:
        return new_node
    args = list(body["args"])
    args[path[0]] = _replace_at(args[path[0]], path[1:], new_node)
    return {**body, "args": args}


_POOL_CACHE: dict[int, list[NodeSummary]] = {}


def _preorder(summary: NodeSummary):
    yield summary
    for child in summary.args:
        yield from _preorder(child)


def _graft_sources(objs: int) -> list[NodeSummary]:
    """Summaries of the builtin subtrees whose accessors read only objects in
    the ``objs`` bit set, depth first with repeats, builtin by builtin."""
    pool = _POOL_CACHE.get(objs)
    if pool is None:
        pool = [s for defn in builtin_definitions().values()
                for s in _preorder(compile_definition(defn).summary) if not s.objs & ~objs]
        _POOL_CACHE[objs] = pool
    return pool


def _scale_constant(root: NodeSummary, rng: np.random.Generator) -> Change:
    factor = float(rng.uniform(0.5, 2.0))
    if root.consts:
        path, trail = _pick(root, _CONSTS, rng)
        old = trail[-1].node["const"]
        new = old * factor
        if new == old:
            new = old + (factor - 1.0) or old + 0.5
        return path, trail, const(new), ()
    # no constants anywhere: scale a random subtree instead
    path, trail = _pick(root, _NODES, rng)
    return path, trail, op("mul", trail[-1].node, const(factor)), ()


def _swap_operator(root: NodeSummary, rng: np.random.Generator) -> Change | None:
    if not root.swaps:
        return None
    path, trail = _pick(root, _SWAPS, rng)
    node = trail[-1].node
    return path, trail, {**node, "op": COMMUTATIVE_SWAPS[node["op"]]}, ()


def _insert_wrapper(root: NodeSummary, rng: np.random.Generator) -> Change:
    path, trail = _pick(root, _NODES, rng)
    target = trail[-1].node
    if int(rng.integers(2)) == 0:
        wrapped = op("exp", op("neg", target))
    else:
        wrapped = op("abs", target)
    return path, trail, wrapped, ()


def _graft_subtree(root: NodeSummary, rng: np.random.Generator, objs: int) -> Change | None:
    pool = _graft_sources(objs)
    if not pool:
        return None
    source = pool[int(rng.integers(len(pool)))]
    path, trail = _pick(root, _NODES, rng)
    return path, trail, source.node, (source,)


def _apply(base: EncoderDefinition, change: Change, metadata: str) -> EncoderDefinition:
    """The definition ``change`` makes of ``base``, checked and compiled
    (DefinitionError if it fails). Its check reuses the summaries of every
    object the new path shares: the path's old nodes, their children and
    whatever the new node reuses."""
    path, trail, node, reused = change
    child = EncoderDefinition(relation=base.relation, body=_replace_at(base.body, path, node),
                              metadata=metadata)
    shared = (*trail, *(c for s in trail for c in s.args), *reused)
    compile_definition(child, {id(s.node): s for s in shared})
    return child


def mutate_definition(defn: EncoderDefinition, seed: int) -> EncoderDefinition:
    """Return a valid definition differing from ``defn`` in at least one node;
    its check is memoized, so scoring it walks the body no more.

    ``defn`` must pass the check (DefinitionError otherwise): its memoized
    summaries guide the pick.
    """
    rng = np.random.default_rng(seed)
    compiled = compile_definition(defn)
    root = compiled.summary
    original = defn.digest()

    kind = _draw_kind(rng)
    change: Change | None = None
    if kind == "op_swap":
        change = _swap_operator(root, rng)
    elif kind == "wrap":
        change = _insert_wrapper(root, rng)
    elif kind == "graft":
        change = _graft_subtree(root, rng, (1 << compiled.rank) - 1)
    if change is None:
        kind = "const_scale"
        change = _scale_constant(root, rng)

    try:
        candidate = _apply(defn, change, f"mutated[{kind}, seed={seed}]")
        changed = candidate.digest() != original
    except DefinitionError:
        changed = False
    if not changed:
        # graft may reproduce the original or overflow the caps: scale instead
        candidate = _apply(defn, _scale_constant(root, rng), f"mutated[const_scale, seed={seed}]")
    return candidate
