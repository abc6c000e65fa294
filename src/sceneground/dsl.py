"""Expression-tree DSL for spatial relation encoders.

An encoder candidate is a JSON tree over a small numeric node set; evaluating
it against a scene's geometry yields a relation feature of rank 1, 2 or 3.
Every operation is total: division is guarded away from zero, ``exp`` is
clipped, ``sqrt`` floors its argument at zero, and the finished feature is
sanitized to finite nonnegative values with repeated-index entries zeroed.

One pass walks a body (:func:`compile_definition`): it checks each node as
it interns it into a hash-consed DAG (identical subtrees share one node), and
the DAG is memoized on the definition, so :func:`validate_definition` is the
same pass and a body is walked once. Evaluation runs each distinct DAG node
once. One evaluator serves two leaf rules: the dense route
broadcasts each accessor along its own axis (:func:`eval_encoder`), the
gathered route reads accessors at given index arrays
(:func:`eval_encoder_at`) and yields the same entries bit for bit.
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
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .expression import relation_arity
from .scene import PairGeometry, Scene

__all__ = [
    "DefinitionError",
    "EncoderDefinition",
    "RelationFeature",
    "OPS",
    "guarded_div",
    "guarded_exp",
    "guarded_sqrt",
    "finalize_feature",
    "validate_definition",
    "CompiledEncoder",
    "compile_definition",
    "eval_encoder",
    "eval_encoder_at",
    "OBJS_FOR_ARITY",
    "const",
    "get",
    "agg",
    "op",
    "definition_from_dict",
    "load_definition",
    "save_definition",
]

DIV_EPS = 1e-6
EXP_CLIP = 50.0
FEATURE_CAP = 1e30
MAX_TREE_DEPTH = 64
MAX_TREE_NODES = 512

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


class DefinitionError(ValueError):
    """Raised when an encoder definition fails static validation."""


def guarded_div(a, b):
    """a / b with the denominator pushed at least DIV_EPS away from zero."""
    b = np.asarray(b, dtype=np.float64)
    return a / (b + DIV_EPS * np.where(b >= 0.0, 1.0, -1.0))


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


@dataclass(frozen=True)
class EncoderDefinition:
    """A relation encoder candidate: relation name, DSL body, provenance tag."""

    relation: str
    body: dict
    metadata: str = ""

    def to_dict(self) -> dict:
        return {"relation": self.relation, "metadata": self.metadata, "body": self.body}

    def canonical_json(self) -> str:
        return json.dumps({"relation": self.relation, "body": self.body}, sort_keys=True)

    def digest(self) -> str:
        """Content hash over relation + body (metadata excluded).

        Computed on the first call and memoized; bodies are immutable.
        """
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


def load_definition(path: str | Path) -> EncoderDefinition:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    defn = definition_from_dict(raw)
    validate_definition(defn)
    return defn


def save_definition(defn: EncoderDefinition, path: str | Path) -> None:
    Path(path).write_text(json.dumps(defn.to_dict(), indent=2) + "\n", encoding="utf-8")


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
    "add": (2, lambda a, b: a + b),
    "sub": (2, lambda a, b: a - b),
    "mul": (2, lambda a, b: a * b),
    "div": (2, guarded_div),
    "min": (2, np.minimum),
    "max": (2, np.maximum),
    "abs": (1, np.abs),
    "neg": (1, lambda a: -a),
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


@dataclass(frozen=True)
class CompiledEncoder:
    """A definition body as a hash-consed DAG.

    ``nodes`` lists each distinct subtree once, children before parents, so
    the root is last: ``("const", value)``, ``("get", field, obj, axis)``,
    ``("agg", name, axis)`` or ``("op", name, child_positions)``.
    ``frees[p]`` names the positions whose last reader is node ``p``, so an
    evaluation holds no more intermediates than it still needs.
    """

    relation: str
    rank: int
    nodes: tuple[tuple, ...]
    frees: tuple[tuple[int, ...], ...]


def _check_and_compile(defn: EncoderDefinition) -> CompiledEncoder:
    """The one walk over a body: check each node, then intern it into the DAG.

    The first fault in depth-first order raises DefinitionError with the
    node's ``body.args[..]`` path; the node cap (repeats counted) is checked
    after the walk. A subtree object that occurs again (trees share
    immutable subtrees) is walked again only where it sits deeper.
    """
    rank = relation_arity(defn.relation)
    allowed = OBJS_FOR_ARITY[rank]
    ids: dict[tuple, int] = {}
    nodes: list[tuple] = []
    # id of a checked node object -> (DAG position, subtree size, its depth)
    checked: dict[int, tuple[int, int, int]] = {}
    count = 0

    def intern(node: object, depth: int, path: tuple | None) -> int:
        # path is (parent_path, arg_position), None at the root, spelled out
        # only for an error message; names are checked to be strings before
        # any lookup, so a list there is a fault, not a TypeError
        nonlocal count
        seen = checked.get(id(node))
        if seen is not None and depth <= seen[2]:
            count += seen[1]
            return seen[0]
        if depth > MAX_TREE_DEPTH:
            raise _fault(path, f"tree depth exceeds {MAX_TREE_DEPTH}")
        if not isinstance(node, dict):
            raise _fault(path, f"node must be an object, got {type(node).__name__}")
        start = count
        count += 1
        if "const" in node:
            value = node["const"]
            # a float must be finite, an int fit in 64 bits; a bool is no number
            if isinstance(value, bool) or not (
                    math.isfinite(value) if isinstance(value, float)
                    else isinstance(value, int) and -2**63 <= value < 2**64):
                raise _fault(path, "const must be a finite number")
            value = float(value)
            # repr keeps -0.0 apart from 0.0, which compare equal
            key, entry = ("const", repr(value)), ("const", value)
        elif "get" in node:
            field, obj, axis = node["get"], node.get("obj"), node.get("axis")
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
            key = entry = ("get", field, obj, axis)
        elif "agg" in node:
            name, axis = node["agg"], node.get("axis")
            if not isinstance(name, str) or name not in _AGG_FIELDS:
                raise _fault(path, f"unknown aggregate {name!r}")
            axes = _AGG_FIELDS[name][0]
            if axes is None and axis is not None:
                raise _fault(path, f"aggregate {name!r} takes no axis")
            if axes is not None and axis not in axes:
                raise _fault(path, f"aggregate {name!r} needs axis in {axes}")
            key = entry = ("agg", name, axis)
        elif "op" in node:
            name, args = node["op"], node.get("args")
            if not isinstance(name, str) or name not in OPS:
                raise _fault(path, f"unknown op {name!r}")
            if not isinstance(args, list) or len(args) != OPS[name]:
                raise _fault(path, f"op {name!r} takes {OPS[name]} args")
            children = tuple(intern(child, depth + 1, (path, k)) for k, child in enumerate(args))
            key = entry = ("op", name, children)
        else:
            raise _fault(path, "node must have one of const/get/agg/op")
        pos = ids.setdefault(key, len(nodes))
        if pos == len(nodes):
            nodes.append(entry)
        checked[id(node)] = (pos, count - start, depth)
        return pos

    intern(defn.body, 1, None)
    if count > MAX_TREE_NODES:
        raise DefinitionError(f"body: tree has {count} nodes, cap is {MAX_TREE_NODES}")
    last_reader: dict[int, int] = {}
    for pos, node in enumerate(nodes):
        if node[0] == "op":
            last_reader.update((child, pos) for child in node[2])
    frees: list[list[int]] = [[] for _ in nodes]
    for child, pos in last_reader.items():
        frees[pos].append(child)
    return CompiledEncoder(relation=defn.relation, rank=rank,
                           nodes=tuple(nodes), frees=tuple(map(tuple, frees)))


def compile_definition(defn: EncoderDefinition) -> CompiledEncoder:
    """Check a body and compile it to its DAG, or raise DefinitionError.

    Memoized on the definition, as bodies are immutable.
    """
    compiled = defn.__dict__.get("_compiled")
    if compiled is None:
        compiled = _check_and_compile(defn)
        object.__setattr__(defn, "_compiled", compiled)
    return compiled


def validate_definition(defn: EncoderDefinition) -> None:
    """Static check: well-formed tree, arity-consistent accessors, size caps;
    the memoized pass of :func:`compile_definition`."""
    compile_definition(defn)


def _evaluate(compiled: CompiledEncoder, geom: PairGeometry, leaf):
    """Evaluate every distinct node once; ``leaf(values, obj)`` places an
    accessor's per-object values (broadcast axis or gathered entries)."""
    values: list = []
    for node, frees in zip(compiled.nodes, compiled.frees):
        kind = node[0]
        if kind == "op":
            values.append(_OPS[node[1]][1](*[values[c] for c in node[2]]))
        elif kind == "get":
            values.append(leaf(_get_values(node[1], geom, node[3]), node[2]))
        elif kind == "agg":
            values.append(_agg_value(node[1], geom, node[2]))
        else:
            values.append(node[1])
        for dead in frees:
            values[dead] = None
    return values[-1]


def _sanitize(data: np.ndarray) -> np.ndarray:
    """In place: nan -> 0, +inf -> FEATURE_CAP, -inf and negatives -> 0."""
    np.nan_to_num(data, copy=False, nan=0.0, posinf=FEATURE_CAP, neginf=0.0)
    np.maximum(data, 0.0, out=data)
    return data


def _finalize_owned(data: np.ndarray, rank: int) -> np.ndarray:
    """finalize_feature on a C-contiguous array this module owns."""
    _sanitize(data)
    if rank >= 2:
        idx = np.arange(data.shape[0])
        if rank == 2:
            data[idx, idx] = 0.0
        else:
            data[idx, idx, :] = 0.0
            data[idx, :, idx] = 0.0
            data[:, idx, idx] = 0.0
    data.setflags(write=False)
    return data


def finalize_feature(raw, rank: int, n: int) -> np.ndarray:
    """Sanitize to finite nonnegative values; zero every repeated-index entry."""
    data = np.asarray(raw, dtype=np.float64)
    return _finalize_owned(np.array(np.broadcast_to(data, (n,) * rank), order="C"), rank)


@dataclass(frozen=True)
class RelationFeature:
    """Dense nonnegative feature of rank 1 (N), 2 (N,N) or 3 (N,N,N)."""

    relation: str
    rank: int
    data: np.ndarray

    def __post_init__(self) -> None:
        if self.data.ndim != self.rank:
            raise ValueError(f"feature rank {self.rank} but data has ndim {self.data.ndim}")


def _dense_leaf(rank: int, i_slice: slice | None):
    """Leaf rule of the dense route: each object varies along its own axis."""

    def leaf(values: np.ndarray, obj: str) -> np.ndarray:
        axis = _AXIS_OF_OBJ[obj]
        if axis == 0 and i_slice is not None:
            values = values[i_slice]
        shape = [1] * rank
        shape[axis] = -1
        return values.reshape(shape)

    return leaf


def eval_encoder(
    defn: EncoderDefinition,
    scene: Scene,
    geom: PairGeometry,
    chunk_elems: int = 1 << 18,
) -> RelationFeature:
    """Evaluate a definition over a scene; pure and deterministic.

    The body is checked and compiled to its DAG (:func:`compile_definition`),
    so each distinct subtree is evaluated once. Rank-3 bodies are evaluated
    in chunks along the first index so the intermediate working set stays
    bounded even when N is large.
    """
    n = len(scene)
    if geom.centers.shape[0] != n:
        raise ValueError("scene and geometry disagree on object count")
    compiled = compile_definition(defn)
    rank = compiled.rank
    if rank < 3:
        data = finalize_feature(_evaluate(compiled, geom, _dense_leaf(rank, None)), rank, n)
    else:
        out = np.empty((n, n, n), dtype=np.float64)
        step = max(1, chunk_elems // max(1, n * n))
        for start in range(0, n, step):
            sl = slice(start, min(start + step, n))
            out[sl] = _evaluate(compiled, geom, _dense_leaf(rank, sl))
        data = _finalize_owned(out, rank)
    return RelationFeature(relation=defn.relation, rank=rank, data=data)


def eval_encoder_at(
    compiled: CompiledEncoder,
    geom: PairGeometry,
    index: tuple[np.ndarray, ...],
) -> np.ndarray:
    """Feature entries at index tuples, without the dense N^rank tensor.

    ``index`` holds one integer array per object (i, then j, then k), all of
    one length M; entry m equals ``eval_encoder(...).data[index[0][m], ...]``
    bit for bit: accessors gather ``values[index[obj]]`` while subtrees with
    no accessor stay scalars, as in the dense route, and finalize_feature's
    rules apply at each point (repeated indices give 0).
    """
    if len(index) != compiled.rank:
        raise ValueError(f"rank-{compiled.rank} encoder needs {compiled.rank} index arrays")
    index = tuple(np.asarray(a, dtype=np.intp) for a in index)
    n = geom.centers.shape[0]
    shape = index[0].shape
    for a in index:
        if a.ndim != 1 or a.shape != shape:
            raise ValueError("index arrays must be one-dimensional and of equal length")
        if a.size and (a.min() < 0 or a.max() >= n):
            raise ValueError(f"index out of range for {n} objects")
    raw = _evaluate(compiled, geom, lambda values, obj: values[index[_AXIS_OF_OBJ[obj]]])
    data = _sanitize(np.array(np.broadcast_to(np.asarray(raw, dtype=np.float64), shape)))
    for p in range(len(index)):
        for q in range(p + 1, len(index)):
            data[index[p] == index[q]] = 0.0
    return data
