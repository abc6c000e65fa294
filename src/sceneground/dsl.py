"""Expression-tree DSL for spatial relation encoders.

An encoder candidate is a JSON tree over a small numeric node set; evaluating
it against a scene's geometry yields a relation feature of rank 1, 2 or 3.
Every operation is total: division is guarded away from zero, ``exp`` is
clipped, ``sqrt`` floors its argument at zero, and the finished feature is
sanitized to finite nonnegative values with repeated-index entries zeroed.

Each node object of a body has a :class:`NodeSummary` (node count, height,
counts of constants and swappable operators, and the node's canonical JSON
text, joined from its children's), made by one node rule
(:func:`summarize_node`) from the node and its children's summaries. The
check pass walks a body and applies it to each node object once; mutation
applies it to a child's new path only, over its base's summaries, and
leaves just the caps to check on the new root. Either way a checked body
is its root summary, which :func:`compile_definition` returns and memoizes
on the definition; every evaluator takes the definition and reads its root
through that pass, and a relation's rank is its arity. The check pass and
the DAG build recurse through module-level functions, not closures, so
neither leaves a reference cycle for the collector.

Equal texts are equal subtrees, and each route evaluates a text once. Two
routes apply an op by its function in ``_OPS``, the one table of op
functions, and differ only in how they read accessors and aggregates, in
the order they visit nodes and in how they dispatch: the gathered route
calls :func:`_node_value` per node, and the dense route's loop
(:func:`_evaluate`) applies the same rule inline, calling a one- or
two-argument op's function directly on its children's values.

- The dense route (:func:`eval_encoders`; :func:`eval_encoder` is its
  one-body case) broadcasts each accessor along its own axis and keeps
  aggregates scalar. It runs one DAG over several bodies of one rank,
  hash-consed on the texts, so a subtree the bodies share (a proximity or
  lateral term, say) is evaluated once for all of them; each intermediate
  is freed after its last reader. Each root is written into its row of one
  stacked output, which is finished once (sanitized, repeated indices
  zeroed, by ``_finalize_owned``), and each feature is a read-only view of
  its row. A program, of one body or several, is built from the summaries
  when a dense evaluation first asks for it and memoized process-wide
  (:func:`_shared_dag`, the one program memo).
- The gathered route (:func:`eval_gathered`; :func:`eval_encoder_at` is its
  one-scene case) reads both at the points of a :class:`GatherPlan`, which
  may span several scenes, and yields the dense entries bit for bit. It
  walks the summaries from the root with a memo of values by text, which a
  caller may keep across bodies on one plan: a mutated child scored with
  its search's memo evaluates only its new path and builds no DAG.
Bodies are treated as immutable: nothing here or in the mutation operator
writes to a node, so trees may share subtrees.

Node wire format (one definition per file):
    {"relation": "above", "metadata": "...", "body": {"op": "mul", "args": [...]}}
Leaves: {"const": 0.5} | {"get": "center", "obj": "i", "axis": "z"} |
        {"agg": "mean_diagonal"} | {"agg": "hull_min", "axis": "x"}
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .atomic import InputError, load_json, write_text_atomic
from .expression import ALL_RELATIONS, ExpressionError, relation_arity
from .scene import PairGeometry, Scene

__all__ = [
    "DefinitionError",
    "EncoderDefinition",
    "RelationFeature",
    "OPS",
    "validate_definition",
    "NodeSummary",
    "compile_definition",
    "eval_encoder",
    "eval_encoders",
    "eval_encoder_at",
    "GatherPlan",
    "eval_gathered",
    "OBJS_FOR_ARITY",
    "const",
    "get",
    "agg",
    "op",
    "definition_from_dict",
    "checked_definition",
    "load_definition",
    "save_definition",
]

DIV_EPS = 1e-6
EXP_CLIP = 50.0
FEATURE_CAP = 1e30
MAX_TREE_DEPTH = 64
MAX_TREE_NODES = 512
# entries per chunk of a dense feature evaluation (eval_encoders)
CHUNK_ELEMS = 1 << 18

# swappable commutative pairs used by the mutation operator
COMMUTATIVE_SWAPS = {"add": "mul", "mul": "add", "min": "max", "max": "min"}

# accessor -> (needs an axis, per-object values from geometry and axis index)
_GET_FIELDS = {
    "center": (True, lambda g, a: g.centers[:, a]),
    "size": (True, lambda g, a: g.sizes[:, a]),
    "bottom": (False, lambda g, a: g.centers[:, 2] - g.sizes[:, 2] / 2),
    "top": (False, lambda g, a: g.centers[:, 2] + g.sizes[:, 2] / 2),
    "volume": (False, lambda g, a: g.volumes),
}
# aggregate -> (axes it takes, or None for none; scalar from geometry and axis index)
_AGG_FIELDS = {
    "mean_diagonal": (None, lambda g, a: g.mean_diagonal),
    "floor_z": (None, lambda g, a: g.floor_z),
    "hull_min": (("x", "y"), lambda g, a: float(g.hull_min[a])),
    "hull_max": (("x", "y"), lambda g, a: float(g.hull_max[a])),
    "centroid": (("x", "y"), lambda g, a: float(g.centroid_xy[a])),
    "volume_min": (None, lambda g, a: float(g.volumes.min())),
    "volume_max": (None, lambda g, a: float(g.volumes.max())),
    "center_min": (("x", "y", "z"), lambda g, a: float(g.centers[:, a].min())),
    "center_max": (("x", "y", "z"), lambda g, a: float(g.centers[:, a].max())),
}
_AXES = {"x": 0, "y": 1, "z": 2}
OBJS_FOR_ARITY = {1: ("i",), 2: ("i", "j"), 3: ("i", "j", "k")}
_AXIS_OF_OBJ = {"i": 0, "j": 1, "k": 2}


class DefinitionError(InputError):
    """Raised when an encoder definition fails static validation."""


def guarded_div(a, b):
    """a / b with the denominator pushed at least DIV_EPS away from zero."""
    return a / (b + np.where(b >= 0.0, DIV_EPS, -DIV_EPS))


def guarded_exp(a):
    return np.exp(np.minimum(a, EXP_CLIP))


def guarded_sqrt(a):
    return np.sqrt(np.maximum(a, 0.0))


def const(value: float) -> dict:
    return {"const": float(value)}


def get(field: str, obj: str, axis: str | None = None) -> dict:
    node = {"get": field, "obj": obj}
    if axis is not None:
        node["axis"] = axis
    return node


def agg(name: str, axis: str | None = None) -> dict:
    node = {"agg": name}
    if axis is not None:
        node["axis"] = axis
    return node


def op(name: str, *args: dict) -> dict:
    return {"op": name, "args": list(args)}


# relation name -> its JSON string
_QUOTED_RELATIONS = {name: json.dumps(name) for name in ALL_RELATIONS}


@dataclass(frozen=True)
class EncoderDefinition:
    """A relation encoder candidate: relation name, DSL body, provenance tag."""

    relation: str
    body: dict
    metadata: str = ""

    def to_dict(self) -> dict:
        return {"relation": self.relation, "metadata": self.metadata, "body": self.body}

    def canonical_json(self) -> str:
        """``json.dumps`` of relation and body with sorted keys. Once the body
        has passed its check, the root summary's text is used instead of
        serializing the whole tree again."""
        root = self.__dict__.get("_root")
        if root is None:
            return json.dumps({"relation": self.relation, "body": self.body}, sort_keys=True)
        # a checked definition's relation is a known one
        return ('{"body": ' + root.text + ', "relation": '
                + _QUOTED_RELATIONS[self.relation] + "}")

    def digest(self) -> str:
        """sha256 of :meth:`canonical_json` (relation + body, metadata
        excluded); memoized, as bodies are immutable."""
        digest = self.__dict__.get("_digest")
        if digest is None:
            digest = hashlib.sha256(self.canonical_json().encode("utf-8")).hexdigest()
            object.__setattr__(self, "_digest", digest)
        return digest


def definition_from_dict(raw: object) -> EncoderDefinition:
    if not isinstance(raw, dict):
        raise DefinitionError("definition must be a JSON object")
    relation = raw.get("relation")
    if not isinstance(relation, str):
        raise DefinitionError("definition missing relation name")
    body = raw.get("body")
    if not isinstance(body, dict):
        raise DefinitionError("definition missing body tree")
    metadata = raw.get("metadata", "")
    if not isinstance(metadata, str):
        raise DefinitionError("metadata must be a string")
    return EncoderDefinition(relation=relation, body=body, metadata=metadata)


def checked_definition(raw: object) -> EncoderDefinition:
    """:func:`definition_from_dict` then :func:`validate_definition`."""
    defn = definition_from_dict(raw)
    validate_definition(defn)
    return defn


def load_definition(path: str | Path) -> EncoderDefinition:
    """Load and check a definition file (UTF-8 JSON); any fault, reading the
    file included, raises DefinitionError naming the file."""
    return load_json(path, DefinitionError, checked_definition)


def save_definition(defn: EncoderDefinition, path: str | Path) -> None:
    """Write a definition file atomically."""
    write_text_atomic(path, json.dumps(defn.to_dict(), indent=2) + "\n")


def _fault(path: tuple | None, message: str) -> DefinitionError:
    steps = []
    while path is not None:
        path, k = path
        steps.append(f".args[{k}]")
    return DefinitionError("body" + "".join(reversed(steps)) + f": {message}")


def _get_values(field: str, geom: PairGeometry, axis: str | None) -> np.ndarray:
    return _GET_FIELDS[field][1](geom, _AXES.get(axis))


def _agg_value(name: str, geom: PairGeometry, axis: str | None) -> float:
    return _AGG_FIELDS[name][1](geom, _AXES.get(axis))


# operator name -> (argument count, function of the argument values)
_OPS = {
    "add": (2, operator.add),
    "sub": (2, operator.sub),
    "mul": (2, operator.mul),
    "div": (2, guarded_div),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "abs": (1, np.abs),
    "neg": (1, operator.neg),
    "exp": (1, guarded_exp),
    "sqrt": (1, guarded_sqrt),
    "relu": (1, lambda a: np.maximum(a, 0.0)),
    "clamp01": (1, lambda a: np.clip(a, 0.0, 1.0)),
    # 2D dot/cross sugar over (ax, ay, bx, by)
    "dot2": (4, lambda ax, ay, bx, by: ax * bx + ay * by),
    "cross2": (4, lambda ax, ay, bx, by: ax * by - ay * bx),
}
# operator name -> argument count
OPS = {name: arity for name, (arity, _) in _OPS.items()}


def is_swappable(node: dict) -> bool:
    """Whether the node's ``op`` (an op's name or a leaf's extra key) swaps."""
    return isinstance(name := node.get("op"), str) and name in COMMUTATIVE_SWAPS


class NodeSummary:
    """What the check learned about one body node object.

    Made by :func:`summarize_node`; a mutated child shares its base's
    summaries of everything off its new path.

    - ``size``: node count, repeats counted.
    - ``height``: levels of the subtree; a leaf has height 1.
    - ``objs``: bit o set when an accessor reads object o (i, j, k).
    - ``consts``, ``swaps``: const nodes, and nodes whose ``op`` is in
      ``COMMUTATIVE_SWAPS``, repeats counted.
    - ``args``: the children's summaries; ``entry`` the node's DAG entry
      (``("op", name)`` for an op, whose entry also lists child positions).
    - ``text``: ``json.dumps(node, sort_keys=True)``, joined from the
      children's texts. Equal texts are equal subtrees, so the DAG and the
      gathered route's memo are keyed by it.
    """

    __slots__ = ("node", "args", "entry", "size", "height", "objs", "consts", "swaps", "text")

    def __init__(self, node: dict, args: tuple, entry: tuple, objs: int, text: str) -> None:
        self.node = node
        self.args = args
        self.entry = entry
        self.text = text
        size = 1
        height = 0
        consts = 1 if "const" in node else 0
        swaps = 1 if is_swappable(node) else 0
        for a in args:
            size += a.size
            if a.height > height:
                height = a.height
            objs |= a.objs
            consts += a.consts
            swaps += a.swaps
        self.size = size
        self.height = height + 1
        self.objs = objs
        self.consts = consts
        self.swaps = swaps


# operator name -> its JSON string
_QUOTED = {name: json.dumps(name) for name in _OPS}


def _json_text(node: dict, args_text: str | None, path: tuple | None) -> str:
    """``json.dumps(node, sort_keys=True)``, with an op's argument list given
    as ``args_text``; a node json.dumps refuses (a set-valued extra, a key
    that is not a string) is a fault at ``path``. (A node's kind key is a
    string, so a key that is not one fails the sort, as it does in
    json.dumps.)"""
    try:
        return "{" + ", ".join(
            json.dumps(k) + ": " + (args_text if k == "args" and args_text is not None
                                    else json.dumps(node[k], sort_keys=True))
            for k in sorted(node)) + "}"
    except (TypeError, ValueError, RecursionError) as exc:
        raise _fault(path, f"node is not JSON: {exc}") from None


def _op_text(node: dict, args: tuple[NodeSummary, ...], path: tuple | None) -> str:
    """An op node's text, joined from its children's."""
    texts = ", ".join([a.text for a in args])
    if len(node) == 2:
        return f'{{"args": [{texts}], "op": {_QUOTED[node["op"]]}}}'
    return _json_text(node, f"[{texts}]", path)


def _build_dag(roots: tuple[NodeSummary, ...]
               ) -> tuple[tuple[tuple, ...], tuple[tuple[int, ...], ...], tuple[int, ...]]:
    """The hash-consed DAG of the bodies rooted at ``roots``: ``nodes``,
    ``frees`` and one output position per root, one step per distinct DAG
    node, keyed by the summaries' texts. Bodies share their equal subtrees,
    and equal roots share one position.

    ``nodes`` lists each distinct subtree once, children before parents:
    ``("const", value)``, ``("get", field, obj, axis)``, ``("agg", name,
    axis)`` or ``("op", name, child_positions)``. ``frees[p]`` names the
    positions whose last reader is node ``p``, so an evaluation holds no more
    intermediates than it still needs. A root is never freed, as its value
    is written into its feature's row of the stacked output."""
    ids: dict[str, int] = {}
    nodes: list[tuple] = []
    # last_reader[p]: the last DAG node that reads node p (p itself until one does)
    last_reader: list[int] = []
    outputs = tuple(ids[root.text] if root.text in ids else _emit(root, ids, nodes, last_reader)
                    for root in roots)
    kept = set(outputs)
    frees: list[list[int]] = [[] for _ in nodes]
    for child, pos in enumerate(last_reader):
        if child not in kept:
            frees[pos].append(child)
    return tuple(nodes), tuple(map(tuple, frees)), outputs


def _emit(summary: NodeSummary, ids: dict[str, int], nodes: list[tuple],
          last_reader: list[int]) -> int:
    """Append the DAG nodes of ``summary``'s subtree that ``ids`` lacks; its
    position. Not a closure, so a build leaves no reference cycle."""
    children = []
    for child in summary.args:
        pos = ids.get(child.text)
        children.append(_emit(child, ids, nodes, last_reader) if pos is None else pos)
    pos = ids[summary.text] = len(nodes)
    if children:
        nodes.append((*summary.entry, tuple(children)))
        for child in children:
            last_reader[child] = pos
    else:
        nodes.append(summary.entry)
    last_reader.append(pos)
    return pos


# A bench run asks for one program per scene and rank: 10 for a mini
# benchmark's 5 scenes (6 of several bodies, 4 of one), 9 of them distinct
# and the same at every seed on one registry, so 64 entries hold six such
# sets, at about 1 KiB a program.
@lru_cache(maxsize=64)
def _shared_dag(roots: tuple[NodeSummary, ...]):
    """The DAG of one or several checked bodies, given by their root
    summaries, memoized process-wide, so a process that evaluates the same
    definitions again skips the build (15-60 us a program). A build visits
    each distinct node once, so a program of several bodies costs less than
    building each body's own. Summaries hash by identity, and the key holds
    them, so their ids are never reused while it lives."""
    return _build_dag(roots)


def summarize_node(node: dict, args: tuple[NodeSummary, ...], rank: int,
                   path: tuple | None = None) -> NodeSummary:
    """The one node rule: the summary of ``node``, whose children have the
    summaries ``args``, in a rank-``rank`` relation's body; DefinitionError
    at ``path``, (parent_path, arg_position) or None at the root, if a const,
    accessor or aggregate breaks its rules or json.dumps refuses the node.
    An op's name and argument count are the caller's to check, before its
    children: the check pass's walk does, and mutation's ops are valid (a
    copy of a checked op node with new children cannot fault)."""
    if "const" in node:
        value = node["const"]
        # a float must be finite, an int fit in 64 bits; a bool is no number
        if isinstance(value, bool) or not (
                math.isfinite(value) if isinstance(value, float)
                else isinstance(value, int) and -2**63 <= value < 2**64):
            raise _fault(path, "const must be a finite number")
        if len(node) > 1:
            text = _json_text(node, None, path)
        else:  # json.dumps writes a number with its type's repr
            written = (float if isinstance(value, float) else int).__repr__(value)
            text = f'{{"const": {written}}}'
        return NodeSummary(node, (), ("const", float(value)), 0, text)
    if "get" in node:
        field, obj, axis = node["get"], node.get("obj"), node.get("axis")
        allowed = OBJS_FOR_ARITY[rank]
        if not isinstance(field, str) or field not in _GET_FIELDS:
            raise _fault(path, f"unknown accessor {field!r}")
        if obj not in allowed:
            raise _fault(path, f"accessor object {obj!r} not allowed here "
                               f"(allowed: {allowed})")
        if _GET_FIELDS[field][0]:
            if not isinstance(axis, str) or axis not in _AXES:
                raise _fault(path, f"accessor {field!r} needs axis x|y|z")
        elif axis is not None:
            raise _fault(path, f"accessor {field!r} takes no axis")
        return NodeSummary(node, (), ("get", field, obj, axis), 1 << _AXIS_OF_OBJ[obj],
                           _json_text(node, None, path))
    if "agg" in node:
        name, axis = node["agg"], node.get("axis")
        if not isinstance(name, str) or name not in _AGG_FIELDS:
            raise _fault(path, f"unknown aggregate {name!r}")
        axes = _AGG_FIELDS[name][0]
        if axes is None and axis is not None:
            raise _fault(path, f"aggregate {name!r} takes no axis")
        if axes is not None and axis not in axes:
            raise _fault(path, f"aggregate {name!r} needs axis in {axes}")
        return NodeSummary(node, (), ("agg", name, axis), 0, _json_text(node, None, path))
    if "op" in node:
        return NodeSummary(node, args, ("op", node["op"]), 0, _op_text(node, args, path))
    raise _fault(path, "node must have one of const/get/agg/op")


def _check_and_compile(body: object, rank: int) -> NodeSummary:
    """The check pass: apply the node rule to each node object of a body,
    depth first (:func:`_summarize_checked`), then check the node cap
    (repeats counted)."""
    root = _summarize_checked(body, 1, None, rank, {})
    if root.size > MAX_TREE_NODES:
        raise DefinitionError(f"body: tree has {root.size} nodes, cap is {MAX_TREE_NODES}")
    return root


def _summarize_checked(node: object, depth: int, path: tuple | None, rank: int,
                       seen: dict[int, NodeSummary]) -> NodeSummary:
    """The summary of a node object at ``depth``, its subtree checked. A
    repeated object reuses its summary in ``seen`` where its deepest node
    stays within the depth cap, and is walked again where not, so the first
    fault in depth-first order raises DefinitionError with its
    ``body.args[..]`` path. Not a closure, so a check leaves no cycle."""
    summary = seen.get(id(node))
    if summary is not None and depth + summary.height - 1 <= MAX_TREE_DEPTH:
        return summary
    if depth > MAX_TREE_DEPTH:
        raise _fault(path, f"tree depth exceeds {MAX_TREE_DEPTH}")
    if not isinstance(node, dict):
        raise _fault(path, f"node must be an object, got {type(node).__name__}")
    args = ()
    if "op" in node and node.keys().isdisjoint(("const", "get", "agg")):
        name, args = node["op"], node.get("args")
        if not isinstance(name, str) or name not in OPS:
            raise _fault(path, f"unknown op {name!r}")
        if not isinstance(args, list) or len(args) != OPS[name]:
            raise _fault(path, f"op {name!r} takes {OPS[name]} args")
        args = tuple([_summarize_checked(child, depth + 1, (path, k), rank, seen)
                      for k, child in enumerate(args)])
    summary = seen[id(node)] = summarize_node(node, args, rank, path)
    return summary


def compile_definition(defn: EncoderDefinition, root: NodeSummary | None = None
                       ) -> NodeSummary:
    """Check a body and return its root :class:`NodeSummary`, or raise
    DefinitionError. A checked body is its root summary: the gathered route
    walks the summaries, and the dense route runs them as a program. The
    summary is memoized on the definition, as bodies are immutable, so a
    second call returns the same object.

    ``root``, the body's root summary made by the node rule from checked
    summaries (as mutation builds a child), leaves only the caps to check:
    ``height``, ``size`` and ``objs``. A body past one is checked in full,
    for its first fault's text and ``body.args[..]`` path. An unknown
    relation is a fault too."""
    checked = defn.__dict__.get("_root")
    if checked is not None:
        return checked
    try:
        rank = relation_arity(defn.relation)
    except ExpressionError as exc:
        raise DefinitionError(str(exc)) from None
    if (root is None or root.height > MAX_TREE_DEPTH or root.size > MAX_TREE_NODES
            or root.objs >> rank):
        root = _check_and_compile(defn.body, rank)
    object.__setattr__(defn, "_root", root)
    return root


def validate_definition(defn: EncoderDefinition) -> None:
    """Static check: well-formed tree, arity-consistent accessors, size caps;
    the memoized pass of :func:`compile_definition`."""
    compile_definition(defn)


def _node_value(entry: tuple, args: list, plan: GatherPlan):
    """The gathered route's node rule: the value on ``plan`` of a node with a
    summary's entry ``entry`` whose children have the values ``args``."""
    kind = entry[0]
    if kind == "op":
        return _OPS[entry[1]][1](*args)
    if kind == "get":
        return plan.get(entry[1], entry[2], entry[3])
    if kind == "agg":
        return plan.agg(entry[1], entry[2])
    return entry[1]


def _evaluate(nodes: tuple, frees: tuple, get_rule, agg_rule) -> list:
    """Run a DAG: every distinct node once, each intermediate dropped after
    its last reader; the values list, which still holds every root. The
    dense route's node rule, inline: an op calls its ``_OPS`` function on its
    children's values (a one- or two-argument op directly), an accessor is
    ``get_rule(field, obj, axis)``, an aggregate ``agg_rule(name, axis)`` and
    a constant its value."""
    values: list = []
    append = values.append
    for node, dying in zip(nodes, frees):
        kind = node[0]
        if kind == "op":
            fn, args = _OPS[node[1]][1], node[2]
            if len(args) == 2:
                append(fn(values[args[0]], values[args[1]]))
            elif len(args) == 1:
                append(fn(values[args[0]]))
            else:
                append(fn(*[values[c] for c in args]))
        elif kind == "get":
            append(get_rule(node[1], node[2], node[3]))
        elif kind == "agg":
            append(agg_rule(node[1], node[2]))
        else:
            append(node[1])
        for dead in dying:
            values[dead] = None
    return values


def _sanitize(data: np.ndarray, raw=None) -> np.ndarray:
    """The one sanitize rule, into ``data``: nan -> 0, +inf -> FEATURE_CAP,
    -inf and negatives -> 0, -0.0 -> 0.0 (the bytes of ``nan_to_num`` then
    ``maximum(data, 0.0)``). It acts in place, or, given ``raw`` (an array
    of ``data``'s shape or a scalar), writes ``raw``'s sanitized values into
    ``data`` without copying them there first."""
    np.fmax(data if raw is None else raw, 0.0, out=data)
    data[data == np.inf] = FEATURE_CAP
    data += 0.0  # fmax may keep -0.0
    return data


def _finalize_owned(data: np.ndarray, rank: int) -> np.ndarray:
    """Finish, in place, a C-contiguous array this module owns: one
    rank-``rank`` feature of shape ``(n,) * rank``, or a stack of them of
    shape ``(R,) + (n,) * rank``, which is sanitized to finite nonnegative
    values, has every repeated-index entry zeroed, and is made read-only, so
    each ``data[r]`` is a finished feature."""
    _sanitize(data)
    if rank >= 2:
        idx = np.arange(data.shape[-1])
        if rank == 2:
            data[..., idx, idx] = 0.0
        else:
            data[..., idx, idx, :] = 0.0
            data[..., idx, :, idx] = 0.0
            data[..., idx, idx] = 0.0
    data.setflags(write=False)
    return data


@dataclass(frozen=True)
class RelationFeature:
    """Dense nonnegative feature of rank 1 (N), 2 (N,N) or 3 (N,N,N)."""

    relation: str
    rank: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != self.rank:
            raise ValueError(f"feature rank {self.rank} but data has ndim {self.data.ndim}")


def _dense_rules(geom: PairGeometry, rank: int, i_slice: slice):
    """Rules of the dense route over the objects i in ``i_slice``: each
    object varies along its own axis, and an aggregate is the scene's
    scalar."""

    def get_rule(field: str, obj: str, axis: str | None) -> np.ndarray:
        values = _get_values(field, geom, axis)
        o = _AXIS_OF_OBJ[obj]
        if o == 0:
            values = values[i_slice]
        shape = [1] * rank
        shape[o] = -1
        return values.reshape(shape)

    return get_rule, lambda name, axis: _agg_value(name, geom, axis)


def eval_encoder(defn: EncoderDefinition, scene: Scene, geom: PairGeometry) -> RelationFeature:
    """Evaluate a definition over a scene; pure and deterministic. The
    one-body case of :func:`eval_encoders`."""
    return eval_encoders((defn,), scene, geom)[0]


def eval_encoders(defns: Sequence[EncoderDefinition], scene: Scene, geom: PairGeometry
                  ) -> list[RelationFeature]:
    """Evaluate definitions of one rank over a scene in one shared pass.

    The bodies are checked (:func:`compile_definition`) and run as one DAG,
    so each distinct subtree of all of them is evaluated once; each feature
    equals its body's own evaluation byte for byte. The features are
    evaluated in chunks along the first index of about ``CHUNK_ELEMS``
    entries each, so the intermediate working set stays bounded even when N
    is large. Every root is written into one stacked array of shape
    ``(R,) + (n,) * rank``, one row per definition, which is finalized once
    (:func:`_finalize_owned`); feature r's data is the read-only,
    C-contiguous view ``stack[r]``.
    """
    n = len(scene)
    if geom.centers.shape[0] != n:
        raise ValueError("scene and geometry disagree on object count")
    roots = tuple(compile_definition(defn) for defn in defns)
    if not roots:
        return []
    rank = relation_arity(defns[0].relation)
    if any(relation_arity(defn.relation) != rank for defn in defns):
        raise ValueError("eval_encoders needs definitions of one rank")
    nodes, frees, outputs = _shared_dag(roots)
    stack = np.empty((len(roots),) + (n,) * rank, dtype=np.float64)
    step = max(1, CHUNK_ELEMS // max(1, n ** (rank - 1)))
    for start in range(0, n, step):
        sl = slice(start, min(start + step, n))
        values = _evaluate(nodes, frees, *_dense_rules(geom, rank, sl))
        for r, pos in enumerate(outputs):
            stack[r, sl] = values[pos]
    _finalize_owned(stack, rank)
    return [RelationFeature(relation=defn.relation, rank=rank, data=data)
            for defn, data in zip(defns, stack)]


class GatherPlan:
    """Points gathered from one or more scenes, for :func:`eval_gathered`.

    Point m lies in scene ``segment[m]`` and reads, for each object (i, then
    j, then k), entry ``index[o][m]`` of the scenes' concatenated
    ``centers``, ``sizes`` and ``volumes``; ``repeated[m]`` marks a point
    whose objects repeat. An accessor is its per-object values gathered at
    ``index``, an aggregate its per-scene values gathered at ``segment``;
    ``any_repeated`` says whether some point's objects repeat. Accessors and
    aggregates are memoized, so every encoder evaluated on a plan shares
    them (readers that race on a first read compute equal arrays).
    """

    def __init__(self, geoms: Sequence[PairGeometry], segment, index: Sequence) -> None:
        """``index`` holds one array per object of indices into point m's own
        scene ``geoms[segment[m]]``; all arrays are one-dimensional and of
        one length M."""
        self.geoms = tuple(geoms)
        self.segment = np.asarray(segment, dtype=np.intp)
        local = tuple(np.asarray(a, dtype=np.intp) for a in index)
        for a in (self.segment, *local):
            if a.ndim != 1 or a.shape != self.segment.shape:
                raise ValueError("index arrays must be one-dimensional and of equal length")
        if self.segment.size and (self.segment.min() < 0 or self.segment.max() >= len(self.geoms)):
            raise ValueError(f"segment out of range for {len(self.geoms)} scenes")
        counts = np.array([g.centers.shape[0] for g in self.geoms], dtype=np.intp)
        n = counts[self.segment]
        for a in local:
            bad = np.flatnonzero((a < 0) | (a >= n))
            if bad.size:
                raise ValueError(f"index {a[bad[0]]} out of range for {n[bad[0]]} objects")
        offset = (np.cumsum(counts) - counts)[self.segment]
        self.index = tuple(a + offset for a in local)
        self.centers = np.concatenate([g.centers for g in self.geoms])
        self.sizes = np.concatenate([g.sizes for g in self.geoms])
        self.volumes = np.concatenate([g.volumes for g in self.geoms])
        self.repeated = np.zeros(self.segment.shape, dtype=bool)
        for p in range(len(local)):
            for q in range(p + 1, len(local)):
                self.repeated |= local[p] == local[q]
        self.any_repeated = bool(self.repeated.any())
        self._leaves: dict[tuple, np.ndarray] = {}

    def get(self, field: str, obj: str, axis: str | None) -> np.ndarray:
        """An accessor's values at every point (read-only, memoized)."""
        key = (field, obj, axis)
        values = self._leaves.get(key)
        if values is None:
            values = _get_values(field, self, axis)[self.index[_AXIS_OF_OBJ[obj]]]
            values.setflags(write=False)
            self._leaves[key] = values
        return values

    def agg(self, name: str, axis: str | None) -> np.ndarray:
        """An aggregate's value at every point: its scene's scalar (read-only,
        memoized)."""
        key = (name, axis)
        values = self._leaves.get(key)
        if values is None:
            per_scene = np.array([_agg_value(name, g, axis) for g in self.geoms], dtype=np.float64)
            values = per_scene[self.segment]
            values.setflags(write=False)
            self._leaves[key] = values
        return values


def _walk(summary: NodeSummary, memo: dict, plan: GatherPlan):
    """The value on ``plan`` of a subtree whose text ``memo`` lacks, computed
    and added; its children are read from ``memo`` where it holds them."""
    args = []
    for child in summary.args:
        value = memo.get(child.text)
        args.append(_walk(child, memo, plan) if value is None else value)
    value = memo[summary.text] = _node_value(summary.entry, args, plan)
    return value


def eval_gathered(defn: EncoderDefinition, plan: GatherPlan, memo: dict | None = None
                  ) -> np.ndarray:
    """A definition's feature entries at every point of a plan, in one
    evaluation. The body is checked by :func:`compile_definition`'s
    memoized pass (DefinitionError if it breaks a rule), and its root
    summary is walked.

    Entry m equals the dense feature of point m's scene at point m's
    indices, bit for bit: ops act elementwise, and an op rounds an entry of
    an aggregate's per-point array as it rounds the dense route's scalar.
    The dense route's finishing rules apply at each point (repeated indices
    give 0).

    ``memo`` maps a node's text to its value on ``plan`` (equal texts are
    equal subtrees, with values equal bit for bit); only the nodes whose
    texts it lacks are evaluated, and added. So a memo kept across bodies on
    one plan makes a body that shares all but one path with one seen before
    cost that path. It must hold values of ``plan`` only, and its values are
    never written to; with none, the call uses a fresh one.

    The root's value (an array of points, or the scalar of a body of
    constants only) is sanitized straight into the output, and the zeroing
    of repeated points is skipped on a plan that has none.
    """
    root = compile_definition(defn)
    rank = relation_arity(defn.relation)
    if len(plan.index) != rank:
        raise ValueError(f"rank-{rank} encoder needs {rank} index arrays")
    memo = {} if memo is None else memo
    raw = memo.get(root.text)
    if raw is None:
        raw = _walk(root, memo, plan)
    data = _sanitize(np.empty(plan.segment.shape), raw)
    if plan.any_repeated:
        data[plan.repeated] = 0.0
    return data


def eval_encoder_at(
    defn: EncoderDefinition,
    geom: PairGeometry,
    index: tuple[np.ndarray, ...],
) -> np.ndarray:
    """A definition's feature entries at index tuples, without the dense
    N^rank tensor; the body is checked as :func:`eval_gathered` checks it.

    ``index`` holds one integer array per object (i, then j, then k), all of
    one length M; entry m equals ``eval_encoder(...).data[index[0][m], ...]``
    bit for bit, and the dense route's finishing rules apply at each point
    (repeated indices give 0). The one-scene case of :func:`eval_gathered`.
    """
    index = tuple(np.asarray(a, dtype=np.intp) for a in index)
    segment = np.zeros(index[0].shape[:1], dtype=np.intp)
    return eval_gathered(defn, GatherPlan((geom,), segment, index))
