"""Scene representation: labeled 3D boxes plus precomputed shared geometry.

A scene is an ordered collection of axis-aligned bounding boxes with category
labels. All relation encoders consume the same :class:`PairGeometry`, computed
once per scene. Axis convention: z is up; ``size = (width, depth, height)``
is the extent along x, y, z respectively.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = [
    "SceneError",
    "BoundingBox",
    "SceneObject",
    "Scene",
    "SimilarityTable",
    "PairGeometry",
    "load_scene",
    "save_scene",
    "exact_match_similarity",
    "precompute_geometry",
    "normalize_label",
]


class SceneError(ValueError):
    """Raised for malformed or invalid scene input."""


def normalize_label(text: str) -> str:
    """Case-fold, trim, and collapse internal whitespace."""
    return " ".join(text.casefold().split())


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box: center (cx, cy, cz) and size (width, depth, height)."""

    center: tuple[float, float, float]
    size: tuple[float, float, float]

    def __post_init__(self) -> None:
        for v in (*self.center, *self.size):
            if not math.isfinite(v):
                raise SceneError(f"non-finite bounding box component: {v!r}")
        if any(s <= 0 for s in self.size):
            raise SceneError(f"size components must be strictly positive, got {self.size}")

    @property
    def volume(self) -> float:
        w, d, h = self.size
        return w * d * h

    def as_row(self) -> list[float]:
        """Flat [cx, cy, cz, w, d, h] row, the wire order for scene files."""
        return [*self.center, *self.size]


@dataclass(frozen=True)
class SceneObject:
    id: int
    label: str
    bbox: BoundingBox

    def __post_init__(self) -> None:
        if self.id < 0:
            raise SceneError(f"object id must be non-negative, got {self.id}")
        if not self.label:
            raise SceneError(f"object {self.id}: label must be non-empty")


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
        values = np.array(self.values, dtype=np.float64)
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


@dataclass(frozen=True)
class Scene:
    """Ordered, immutable set of labeled boxes.

    Position k in :attr:`objects` is stable for the lifetime of the scene;
    all feature arrays are indexed by position, with :attr:`index_of`
    translating object ids.
    """

    scene_id: str
    objects: tuple[SceneObject, ...]
    similarities: SimilarityTable | None = None
    index_of: dict[int, int] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.objects) < 1:
            raise SceneError(f"scene {self.scene_id!r}: needs at least one object")
        index: dict[int, int] = {}
        for pos, obj in enumerate(self.objects):
            if obj.id in index:
                raise SceneError(f"scene {self.scene_id!r}: duplicate id {obj.id}")
            index[obj.id] = pos
        object.__setattr__(self, "index_of", index)
        if self.similarities is not None and self.similarities.values.shape[0] != len(self.objects):
            raise SceneError(
                f"scene {self.scene_id!r}: similarity table has "
                f"{self.similarities.values.shape[0]} rows for {len(self.objects)} objects"
            )

    def __len__(self) -> int:
        return len(self.objects)

    @property
    def labels(self) -> list[str]:
        return [obj.label for obj in self.objects]

    @property
    def ids(self) -> list[int]:
        return [obj.id for obj in self.objects]

    def centers(self) -> np.ndarray:
        return np.array([obj.bbox.center for obj in self.objects], dtype=np.float64)

    def sizes(self) -> np.ndarray:
        return np.array([obj.bbox.size for obj in self.objects], dtype=np.float64)

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
    """Deterministic pure function of the scene; safe to share across readers."""
    centers = scene.centers()
    sizes = scene.sizes()
    diagonals = np.sqrt(np.sum(sizes * sizes, axis=1))
    bottoms = centers[:, 2] - sizes[:, 2] / 2
    lo = centers[:, :2] - sizes[:, :2] / 2
    hi = centers[:, :2] + sizes[:, :2] / 2
    return PairGeometry(
        centers=centers,
        sizes=sizes,
        mean_diagonal=float(np.mean(diagonals)),
        floor_z=float(np.min(bottoms)),
        hull_min=lo.min(axis=0),
        hull_max=hi.max(axis=0),
        centroid_xy=centers[:, :2].mean(axis=0),
        volumes=np.prod(sizes, axis=1),
    )


def _parse_object(entry: object, position: int) -> SceneObject:
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
    values = []
    for k, v in enumerate(bbox):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise SceneError(f"objects[{position}] (id {oid}): bbox[{k}] is not a number")
        values.append(float(v))
    try:
        box = BoundingBox(center=tuple(values[:3]), size=tuple(values[3:]))
        return SceneObject(id=oid, label=label, bbox=box)
    except SceneError as exc:
        raise SceneError(f"object id {oid}: {exc}") from None


def _parse_similarities(raw: object) -> SimilarityTable:
    if not isinstance(raw, dict) or "categories" not in raw or "values" not in raw:
        raise SceneError('similarities must be {"categories": [...], "values": [[...], ...]}')
    categories = raw["categories"]
    if not isinstance(categories, list) or not all(isinstance(c, str) for c in categories):
        raise SceneError("similarities.categories must be a list of strings")
    return SimilarityTable(
        categories=tuple(categories),
        values=np.asarray(raw["values"], dtype=np.float64),
    )


def scene_from_dict(raw: dict) -> Scene:
    """Build and validate a Scene from the wire-format dict."""
    scene_id = raw.get("scene_id")
    if not isinstance(scene_id, str):
        raise SceneError("missing or non-string scene_id")
    entries = raw.get("objects")
    if not isinstance(entries, list) or not entries:
        raise SceneError(f"scene {scene_id!r}: objects must be a non-empty list")
    objects = tuple(_parse_object(entry, pos) for pos, entry in enumerate(entries))
    similarities = None
    if "similarities" in raw:
        similarities = _parse_similarities(raw["similarities"])
    return Scene(scene_id=scene_id, objects=objects, similarities=similarities)


def load_scene(path: str | Path) -> Scene:
    """Load a scene file (UTF-8 JSON); ordering matches the file order."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SceneError(f"cannot read scene file {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SceneError(f"{path}: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
    if not isinstance(raw, dict):
        raise SceneError(f"{path}: top level must be a JSON object")
    try:
        return scene_from_dict(raw)
    except SceneError as exc:
        raise SceneError(f"{path}: {exc}") from None


def _scene_to_dict(scene: Scene) -> dict:
    out: dict = {
        "scene_id": scene.scene_id,
        "objects": [
            {"id": obj.id, "label": obj.label, "bbox": obj.bbox.as_row()}
            for obj in scene.objects
        ],
    }
    if scene.similarities is not None:
        out["similarities"] = {
            "categories": list(scene.similarities.categories),
            "values": scene.similarities.values.tolist(),
        }
    return out


def save_scene(scene: Scene, path: str | Path) -> None:
    """Write the wire format back out; numeric fields round-trip exactly."""
    Path(path).write_text(json.dumps(_scene_to_dict(scene), indent=2) + "\n", encoding="utf-8")


def exact_match_similarity(scene: Scene, categories: list[str]) -> SimilarityTable:
    """Binary 0/1 similarity by normalized label equality.

    Stand-in for an embedding model: no synonym resolution, only case-fold,
    trim, and whitespace-collapse before comparing.
    """
    if not categories:
        raise SceneError("categories must be non-empty")
    labels = [normalize_label(obj.label) for obj in scene.objects]
    values = np.zeros((len(scene), len(categories)), dtype=np.float64)
    for q, cat in enumerate(categories):
        key = normalize_label(cat)
        for i, label in enumerate(labels):
            if label == key:
                values[i, q] = 1.0
    return SimilarityTable(categories=tuple(categories), values=values)
