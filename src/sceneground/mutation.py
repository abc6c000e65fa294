"""Seeded structural mutation of encoder definitions.

This is the offline candidate generator: it perturbs a definition by scaling
a constant, swapping a commutative operator, inserting a wrapper, or grafting
a subtree from the builtin library. Every mutation is deterministic for a
given seed and always yields a definition that passes validation. The
draws are those of numpy's ``Generator`` calls, taken more cheaply from the
same stream: the kind is what ``rng.choice(4, p=...)`` picks, and the scale
factor is ``rng.uniform(0.5, 2.0)``'s draw, ``0.5 + 1.5 * rng.random()``.

A mutation costs its changed path, not its tree. The node to change is
found by descending the base's node summaries (:class:`~sceneground.dsl.
NodeSummary`), in depth-first order with repeats, in as many steps as that
node is deep. Bodies are never mutated in place: the child copies the nodes
on that path and shares every other subtree with the base (grafts share
nodes with the builtin pool). Each new node gets its summary from the DSL's
node rule and its children's (a copy of a path node only joins its text
anew, :func:`~sceneground.dsl.summarize_op`), so the child is built checked,
with only the caps left to test on its root; the check pass never walks it,
and a search scoring it on its memo of subtree values evaluates only its
new path.
"""

from __future__ import annotations

from bisect import bisect_right
from functools import cache
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
    is_swappable,
    op,
    summarize_node,
    summarize_op,
)

__all__ = ["mutate_definition"]

Path = tuple[int, ...]
# what replaces a node: a checked subtree's summary, or (new node, child recipes)
Recipe = NodeSummary | tuple[dict, tuple]
# a change: the path to the picked node, the summaries from the root to it
Change = tuple[Path, list[NodeSummary], Recipe]

# what a pick counts: its total in a subtree, and what a node adds itself
_NODES = (attrgetter("size"), lambda s: 1)
_CONSTS = (attrgetter("consts"), lambda s: s.entry[0] == "const")
_SWAPS = (attrgetter("swaps"), lambda s: is_swappable(s.node))
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
    total, own = count
    path: list[int] = []
    trail = [root]
    node = root
    while True:
        mine = own(node)
        if k < mine:
            return tuple(path), trail
        k -= mine
        for pos, child in enumerate(node.args):
            if k < total(child):
                break
            k -= total(child)
        path.append(pos)
        trail.append(child)
        node = child


def _pick(root: NodeSummary, count, rng: np.random.Generator) -> tuple[Path, list[NodeSummary]]:
    return _descend(root, count, int(rng.integers(count[0](root))))


def _op(name: str, *args: Recipe) -> tuple[dict, tuple]:
    return op(name, *[a.node if isinstance(a, NodeSummary) else a[0] for a in args]), args


def _preorder(summary: NodeSummary):
    yield summary
    for child in summary.args:
        yield from _preorder(child)


@cache
def _graft_sources(objs: int) -> list[NodeSummary]:
    """Summaries of the builtin subtrees whose accessors read only objects in
    the ``objs`` bit set, depth first with repeats, builtin by builtin."""
    return [s for defn in builtin_definitions().values()
            for s in _preorder(compile_definition(defn).summary) if not s.objs & ~objs]


def _scale_constant(root: NodeSummary, rng: np.random.Generator) -> tuple[Change, Change]:
    """A change that scales a constant by a random factor (a subtree when
    there are no constants), and the change that puts the factor itself in
    the picked node's place, which cannot overflow or grow the tree."""
    # ``rng.uniform(0.5, 2.0)`` computes this from the same one draw
    factor = 0.5 + 1.5 * rng.random()
    if root.consts:
        path, trail = _pick(root, _CONSTS, rng)
        old = trail[-1].node["const"]
        new = old * factor
        if new == old:
            new = old + (factor - 1.0) or old + 0.5
        scaled = const(new), ()
    else:
        path, trail = _pick(root, _NODES, rng)
        scaled = _op("mul", trail[-1], (const(factor), ()))
    return (path, trail, scaled), (path, trail, (const(factor), ()))


def _swap_operator(root: NodeSummary, rng: np.random.Generator) -> Change | None:
    if not root.swaps:
        return None
    path, trail = _pick(root, _SWAPS, rng)
    target = trail[-1]
    return path, trail, ({**target.node, "op": COMMUTATIVE_SWAPS[target.node["op"]]},
                         target.args)


def _insert_wrapper(root: NodeSummary, rng: np.random.Generator) -> Change:
    path, trail = _pick(root, _NODES, rng)
    target = trail[-1]
    if int(rng.integers(2)) == 0:
        return path, trail, _op("exp", _op("neg", target))
    return path, trail, _op("abs", target)


def _graft_subtree(root: NodeSummary, rng: np.random.Generator, objs: int) -> Change | None:
    pool = _graft_sources(objs)
    if not pool:
        return None
    source = pool[int(rng.integers(len(pool)))]
    path, trail = _pick(root, _NODES, rng)
    return path, trail, source


def _summarize(recipe: Recipe, rank: int, where: tuple | None) -> NodeSummary:
    """The summary of what a recipe makes, at error path ``where``."""
    if isinstance(recipe, NodeSummary):
        return recipe
    node, args = recipe
    args = tuple([_summarize(a, rank, (where, k)) for k, a in enumerate(args)])
    return summarize_node(node, args, rank, where)


def _apply(base: EncoderDefinition, change: Change, metadata: str) -> EncoderDefinition:
    """The definition ``change`` makes of ``base``, built checked from the
    new node up, or DefinitionError: a cap (see :func:`~sceneground.dsl.
    compile_definition`), or a scaled constant that overflowed, the first
    fault of a child of the base's shape."""
    path, trail, new = change
    rank = compile_definition(base).rank
    where = None  # the new node's error path
    for k in path:
        where = (where, k)
    summary = _summarize(new, rank, where)
    for parent, k in zip(trail[-2::-1], reversed(path)):
        args = list(parent.node["args"])
        args[k] = summary.node
        summary = summarize_op({**parent.node, "args": args},
                               (*parent.args[:k], summary, *parent.args[k + 1:]), parent.entry)
    child = EncoderDefinition(relation=base.relation, body=summary.node, metadata=metadata)
    compile_definition(child, summary)
    return child


def mutate_definition(defn: EncoderDefinition, seed: int) -> EncoderDefinition:
    """Return a valid definition differing from ``defn`` in at least one
    node, built checked. ``defn`` must pass the check (DefinitionError
    otherwise): its summaries guide the pick."""
    rng = np.random.default_rng(seed)
    compiled = compile_definition(defn)
    root = compiled.summary

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
        change, _ = _scale_constant(root, rng)
    try:
        candidate = _apply(defn, change, f"mutated[{kind}, seed={seed}]")
        changed = candidate.digest() != defn.digest()
    except DefinitionError:
        changed = False
    if not changed:
        # a graft may reproduce the original, and a change may overflow a
        # constant or a cap: scale instead, and if that overflows too, put
        # the scale factor in the picked node's place (no further draw)
        change, safe = _scale_constant(root, rng)
        metadata = f"mutated[const_scale, seed={seed}]"
        try:
            candidate = _apply(defn, change, metadata)
        except DefinitionError:
            candidate = _apply(defn, safe, metadata)
    return candidate
