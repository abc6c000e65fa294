"""Scene representation: labeled 3D boxes plus precomputed shared geometry.

A scene is an ordered collection of axis-aligned bounding boxes with category
labels, stored as columns: a tuple of object ids, a tuple of labels and one
read-only (N, 6) float64 array of boxes in the wire order
``[cx, cy, cz, w, d, h]``. One rule, :func:`_check_object`, says what a
valid object is: the :class:`Scene` constructor applies it to all objects in
bulk, and :func:`scene_from_dict` walks faulty input through it object by
object. The constructor keeps the labels' :func:`normalize_label` forms,
which :func:`exact_match_rows`, the one exact-match helper, reads.
:attr:`Scene.objects` is a read-only per-object view, built on first read.
All relation encoders consume the same :class:`PairGeometry`, computed once
per scene. Axis convention: z is up; ``size = (width, depth, height)`` is
the extent along x, y, z respectively.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path

import numpy as np

from .atomic import InputError, load_json, write_text_atomic

__all__ = [
    "SceneError",
    "BoundingBox",
    "SceneObject",
    "Scene",
    "SimilarityTable",
    "PairGeometry",
    "load_scene",
    "save_scene",
    "exact_match_rows",
    "precompute_geometry",
    "normalize_label",
]


class SceneError(InputError):
    """Raised for malformed or invalid scene input."""


def normalize_label(text: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return " ".join(text.casefold().split())


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: center (cx, cy, cz) and size (width, depth, height).
    Part of the read-only view that :attr:`Scene.objects` builds from checked
    columns; it checks nothing itself."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]


@dataclass(frozen=True)
class SceneObject:
    """One object of :attr:`Scene.objects`' read-only view."""

    id: int
    label: str
    bbox: BoundingBox


@dataclass(frozen=True)
class SimilarityTable:
    """Cosine-similarity columns between scene objects and query categories.

    ``values[i][q]`` is the similarity of object i to ``categories[q]``;
    every entry lies in [-1, 1]. ``values`` is a read-only copy of the input,
    so a scene's memoized fingerprint stays valid.
    """

    categories: tuple[str, ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        try:
            raw = np.asarray(self.values)
        except ValueError as exc:  # ragged rows
            raise SceneError(f"similarity table is not a table: {exc}") from None
        # numpy would cast a string such as "0.5" or a bool to a float
        if raw.dtype.kind not in "iuf":
            raise SceneError("similarity table entries must be numbers")
        values = np.array(raw, dtype=np.float64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[1] != len(self.categories):
            raise SceneError(
                f"similarity table shape {values.shape} does not match "
                f"{len(self.categories)} categories"
            )
        if not np.all(np.isfinite(values)):
            raise SceneError("similarity table contains non-finite entries")
        if np.any(values < -1.0) or np.any(values > 1.0):
            raise SceneError("similarity entries must lie in [-1, 1]")

    def column(self, category: str) -> np.ndarray | None:
        key = normalize_label(category)
        for q, name in enumerate(self.categories):
            if normalize_label(name) == key:
                return self.values[:, q].copy()
        return None


@dataclass(frozen=True, eq=False, init=False)
class Scene:
    """Ordered, immutable set of labeled boxes, stored as columns.

    ``object_ids`` and ``object_labels`` are tuples and ``boxes`` is one
    read-only (N, 6) float64 array whose row k is object k's
    ``[cx, cy, cz, w, d, h]``. Position k is stable for the lifetime of the
    scene; all feature arrays are indexed by position, with :attr:`index_of`
    translating object ids. The constructor applies the object rule
    (:func:`_check_object`) to the columns in bulk, then rejects a repeated
    id, and keeps each label's :func:`normalize_label` as
    ``normalized_labels``; scene files and wire-format dicts are read with
    :func:`scene_from_dict`. Two scenes are equal when their contents are.
    """

    scene_id: str
    object_ids: tuple[int, ...]
    object_labels: tuple[str, ...]
    boxes: np.ndarray
    similarities: SimilarityTable | None
    index_of: dict[int, int] = field(repr=False)
    normalized_labels: tuple[str, ...] = field(repr=False)

    def __init__(self, scene_id: str, ids: tuple[int, ...], labels: tuple[str, ...],
                 boxes: np.ndarray, similarities: SimilarityTable | None = None) -> None:
        ids, labels = tuple(ids), tuple(labels)
        try:
            raw = np.asarray(boxes)
        except ValueError as exc:  # ragged rows
            raise SceneError(f"scene {scene_id!r}: boxes are not a table: {exc}") from None
        # numpy would cast a string such as "1" or a bool to a float
        if raw.dtype.kind not in "iuf":
            raise SceneError(f"scene {scene_id!r}: box components must be numbers")
        boxes = np.array(raw, dtype=np.float64)
        boxes.setflags(write=False)
        if not ids:
            raise SceneError(f"scene {scene_id!r}: needs at least one object")
        if len(labels) != len(ids) or boxes.shape != (len(ids), 6):
            raise SceneError(f"scene {scene_id!r}: {len(ids)} ids, {len(labels)} labels "
                             f"and boxes of shape {boxes.shape} do not match")
        normalized = _check_objects(ids, labels, boxes)
        index = dict(zip(ids, range(len(ids))))
        if len(index) < len(ids):
            seen: set[int] = set()
            for oid in ids:
                if oid in seen:
                    raise SceneError(f"scene {scene_id!r}: duplicate id {oid}")
                seen.add(oid)
        if similarities is not None and similarities.values.shape[0] != len(ids):
            raise SceneError(
                f"scene {scene_id!r}: similarity table has "
                f"{similarities.values.shape[0]} rows for {len(ids)} objects"
            )
        for name, value in (("scene_id", scene_id), ("object_ids", ids), ("object_labels", labels),
                            ("boxes", boxes), ("similarities", similarities), ("index_of", index),
                            ("normalized_labels", normalized)):
            object.__setattr__(self, name, value)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scene):
            return NotImplemented
        mine, theirs = self.similarities, other.similarities
        return (self.scene_id == other.scene_id and self.object_ids == other.object_ids
                and self.object_labels == other.object_labels
                and np.array_equal(self.boxes, other.boxes)
                and (mine is theirs or (mine is not None and theirs is not None
                                        and mine.categories == theirs.categories
                                        and np.array_equal(mine.values, theirs.values))))

    def __len__(self) -> int:
        return len(self.object_ids)

    @property
    def labels(self) -> list[str]:
        return list(self.object_labels)

    @property
    def ids(self) -> list[int]:
        return list(self.object_ids)

    @cached_property
    def objects(self) -> tuple[SceneObject, ...]:
        """The per-object view of the columns, built on first read (memoized)."""
        return tuple(
            SceneObject(id=oid, label=label, bbox=BoundingBox(center=tuple(row[:3]),
                                                              size=tuple(row[3:])))
            for oid, label, row in zip(self.object_ids, self.object_labels, self.boxes.tolist())
        )

    def fingerprint(self) -> str:
        """Content hash; feature caches are only valid for a matching scene.

        Computed on the first call and memoized; the hashed content is immutable.
        """
        digest = self.__dict__.get("_fingerprint")
        if digest is None:
            payload = json.dumps(_scene_to_dict(self), sort_keys=True)
            digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", digest)
        return digest


@dataclass(frozen=True)
class PairGeometry:
    """Shared precomputation over a scene.

    ``hull_min``/``hull_max`` bound the box extents (not centers) in x and y,
    so wall gaps measure true surfaces.
    """

    centers: np.ndarray        # (N, 3)
    sizes: np.ndarray          # (N, 3)
    mean_diagonal: float
    floor_z: float
    hull_min: np.ndarray       # (2,) x/y lower bound of box extents
    hull_max: np.ndarray       # (2,)
    centroid_xy: np.ndarray    # (2,) mean of box centers in x/y
    volumes: np.ndarray        # (N,)

    def __post_init__(self) -> None:
        for name in ("centers", "sizes", "hull_min", "hull_max", "centroid_xy", "volumes"):
            arr = getattr(self, name)
            arr.setflags(write=False)


def precompute_geometry(scene: Scene) -> PairGeometry:
    """Deterministic pure function of the scene; safe to share across readers.
    ``centers`` and ``sizes`` are read-only views of the scene's boxes.

    Means are sums divided by N, the arithmetic ``np.mean`` does, without
    its per-call overhead."""
    n = len(scene.boxes)
    centers = scene.boxes[:, :3]
    sizes = scene.boxes[:, 3:]
    half = sizes / 2
    diagonals = np.sqrt((sizes * sizes).sum(axis=1))
    bottoms = centers[:, 2] - half[:, 2]
    lo = centers[:, :2] - half[:, :2]
    hi = centers[:, :2] + half[:, :2]
    return PairGeometry(
        centers=centers,
        sizes=sizes,
        mean_diagonal=float(diagonals.sum() / n),
        floor_z=float(bottoms.min()),
        hull_min=lo.min(axis=0),
        hull_max=hi.max(axis=0),
        centroid_xy=centers[:, :2].sum(axis=0) / n,
        volumes=sizes.prod(axis=1),
    )


_PLAIN_NUMBERS = frozenset((int, float))


def _check_object(oid: int, label: str, row: list[float]) -> None:
    """The rule for one object, with ``row`` its wire-order floats: finite
    components, then strictly positive sizes, then a non-negative id, then a
    non-blank label. The first broken part raises."""
    for v in row:
        if not math.isfinite(v):
            raise SceneError(f"object id {oid}: non-finite bounding box component: {v!r}")
    if any(s <= 0 for s in row[3:]):
        raise SceneError(f"object id {oid}: size components must be strictly positive, "
                         f"got {tuple(row[3:])}")
    if oid < 0:
        raise SceneError(f"object id {oid}: object id must be non-negative, got {oid}")
    if not normalize_label(label):
        raise SceneError(f"object id {oid}: object {oid}: label must not be empty "
                         f"or only whitespace")


def _check_objects(ids: tuple[int, ...], labels: tuple[str, ...],
                   boxes: np.ndarray) -> tuple[str, ...]:
    """Apply :func:`_check_object` to non-empty columns in bulk, flagging
    faulty objects with array passes, and return the normalized labels; the
    first flagged object in position order raises with its own text."""
    normalized = tuple(map(normalize_label, labels))
    bad = np.flatnonzero(~np.isfinite(boxes).all(axis=1)
                         | (boxes[:, 3:] <= 0.0).any(axis=1)).tolist()
    if min(ids) < 0 or not all(normalized):
        bad += [pos for pos, oid in enumerate(ids) if oid < 0 or not normalized[pos]]
    if bad:
        pos = min(bad)
        _check_object(ids[pos], labels[pos], boxes[pos].tolist())
    return normalized


def _entry_fields(entry: object, position: int) -> tuple[int, str, list[float]]:
    """One wire-format object's id, label and float bbox row: its field
    types are checked, then :func:`_check_object`. The one walk over faulty
    objects; :func:`scene_from_dict` runs it only when its columns fail."""
    if not isinstance(entry, dict):
        raise SceneError(f"objects[{position}]: expected an object, got {type(entry).__name__}")
    try:
        oid = entry["id"]
        label = entry["label"]
        bbox = entry["bbox"]
    except KeyError as exc:
        raise SceneError(f"objects[{position}]: missing field {exc.args[0]!r}") from None
    if not isinstance(oid, int) or isinstance(oid, bool):
        raise SceneError(f"objects[{position}]: id must be an integer, got {oid!r}")
    if not isinstance(label, str):
        raise SceneError(f"objects[{position}] (id {oid}): label must be a string")
    if not isinstance(bbox, list) or len(bbox) != 6:
        raise SceneError(f"objects[{position}] (id {oid}): bbox must be [cx, cy, cz, w, d, h]")
    for k, v in enumerate(bbox):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SceneError(f"objects[{position}] (id {oid}): bbox[{k}] is not a number")
    row = []
    for k, v in enumerate(bbox):
        try:
            row.append(float(v))
        except OverflowError:  # an integer beyond float range
            raise SceneError(f"objects[{position}] (id {oid}): bbox[{k}] "
                             f"is too large for a float") from None
    _check_object(oid, label, row)
    return oid, label, row


def _parse_similarities(raw: object) -> SimilarityTable:
    if not isinstance(raw, dict) or "categories" not in raw or "values" not in raw:
        raise SceneError('similarities must be {"categories": [...], "values": [[...], ...]}')
    categories = raw["categories"]
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise SceneError("similarities.categories must be a list of strings")
    return SimilarityTable(categories=tuple(categories), values=raw["values"])


def _all_of(kind: type, values) -> bool:
    """Whether every value's type is exactly ``kind``, in one C-level pass."""
    return {kind}.issuperset(map(type, values))


def _columns(entries: list) -> tuple[list, list, list] | None:
    """The id, label and bbox columns of wire-format objects when one type
    test per column passes: each entry is a dict whose id is an int, label
    a str and bbox a list of six ints or floats. None otherwise; the
    per-object walk then words the fault, or accepts what
    :func:`_entry_fields` accepts (a dict subclass or an int subclass id)."""
    if not _all_of(dict, entries):
        return None
    try:
        ids = [entry["id"] for entry in entries]
        labels = [entry["label"] for entry in entries]
        rows = [entry["bbox"] for entry in entries]
    except KeyError:
        return None
    if (_all_of(int, ids) and _all_of(str, labels) and _all_of(list, rows)
            and {6}.issuperset(map(len, rows))
            and _PLAIN_NUMBERS.issuperset(map(type, chain.from_iterable(rows)))):
        return ids, labels, rows
    return None


def scene_from_dict(raw: dict) -> Scene:
    """Build and validate a Scene from the wire-format dict.

    The objects' field types are checked as columns, one type test per
    column, and the boxes become one array; :class:`Scene` checks the
    values in bulk. Only when the type test fails or a value overflows a
    float are the objects walked, in order, through :func:`_entry_fields`,
    which raises the first faulty object's fault. Object faults come before
    a similarity table's.
    """
    scene_id = raw.get("scene_id")
    if not isinstance(scene_id, str):
        raise SceneError("missing or non-string scene_id")
    entries = raw.get("objects")
    if not isinstance(entries, list) or not entries:
        raise SceneError(f"scene {scene_id!r}: objects must be a non-empty list")
    boxes = None
    columns = _columns(entries)
    if columns is not None:
        ids, labels, rows = columns
        with contextlib.suppress(OverflowError):  # an integer beyond float range
            boxes = np.array(rows, dtype=np.float64).reshape(-1, 6)
    if boxes is None:
        ids, labels, rows = zip(*(_entry_fields(entry, position)
                                  for position, entry in enumerate(entries)))
        boxes = np.array(rows, dtype=np.float64)
    similarities = None
    if "similarities" in raw:
        try:
            similarities = _parse_similarities(raw["similarities"])
        except SceneError:
            _check_objects(ids, labels, boxes)
            raise
    return Scene(scene_id, ids, labels, boxes, similarities)


def load_scene(path: str | Path) -> Scene:
    """Load a scene file (UTF-8 JSON); ordering matches the file order."""
    return load_json(path, SceneError, scene_from_dict)


def _scene_to_dict(scene: Scene) -> dict:
    out: dict = {
        "scene_id": scene.scene_id,
        "objects": [
            {"id": oid, "label": label, "bbox": row}
            for oid, label, row in zip(scene.object_ids, scene.object_labels, scene.boxes.tolist())
        ],
    }
    if scene.similarities is not None:
        out["similarities"] = {
            "categories": list(scene.similarities.categories),
            "values": scene.similarities.values.tolist(),
        }
    return out


def save_scene(scene: Scene, path: str | Path) -> None:
    """Write the wire format back out atomically; numeric fields round-trip
    exactly."""
    write_text_atomic(path, json.dumps(_scene_to_dict(scene), indent=2) + "\n")


def exact_match_rows(scene: Scene, categories: list[str]) -> np.ndarray:
    """(len(categories), N) array: row q is 1.0 where an object's normalized
    label equals ``categories[q]``'s, else 0.0.

    Stand-in for an embedding model: no synonym resolution, only case-fold,
    trim, and whitespace-collapse before comparing.
    """
    codes: dict[str, int] = {}
    labels = np.array([codes.setdefault(label, len(codes)) for label in scene.normalized_labels])
    keys = np.array([codes.get(normalize_label(category), -1) for category in categories])
    return (keys[:, None] == labels).astype(np.float64)
