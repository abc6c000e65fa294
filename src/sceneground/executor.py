"""Recursive executor: combine category and relation features into scores.

Evaluation starts from the target category's feature and folds in one factor
per relation clause: unary clauses contribute their feature directly, binary
clauses contract the pair feature against the anchor's scores, ternary
clauses contract over both anchors. Each factor is softmax-normalized
(:func:`stable_softmax`, the one softmax, over the last axis), optionally
negated as ``max(f) - f``, and multiplied into the running score.

There is one path from features to a score, :func:`score_features`:
:func:`execute` fetches an expression's features from a :class:`FeatureCache`
and calls it, and ``run_bench`` calls it with the feature dicts its
pre-pass computes with :func:`relation_features` and
:func:`category_features`, without a cache. The score keeps the
factors as its terms, so condition-level scores and per-step scores read
them instead of executing again.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .dsl import EncoderDefinition, RelationFeature, eval_encoders
from .expression import (
    SymbolicExpression,
    collect_categories,
    collect_conditions,
    expression_to_dict,
    relation_arity,
)
from .registry import EncoderRegistry
from .scene import PairGeometry, Scene, exact_match_rows, normalize_label, precompute_geometry

__all__ = [
    "ExecutionError",
    "CategoryFeature",
    "FeatureCache",
    "relation_features",
    "category_features",
    "MatchingScore",
    "stable_softmax",
    "score_features",
    "execute",
    "rank_candidates",
    "grounding_result",
    "condition_level_eval",
    "condition_precision_recall",
]

CATEGORY_SCALE = 100.0


class ExecutionError(RuntimeError):
    """Raised when an expression cannot be executed against a scene."""


def stable_softmax(values: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by each row's max."""
    z = np.asarray(values, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class CategoryFeature:
    """Per-object category match scores; positive and summing to one."""

    category: str
    data: np.ndarray


class FeatureCache:
    """Per-scene memo of relation and category features.

    The cache snapshots the registry's active definitions at construction, so
    a grounding run sees one consistent encoder set (``run_bench`` builds no
    cache and takes one snapshot per run). A request computes its missing
    features with :func:`relation_features` (one shared DAG pass per rank)
    and :func:`category_features` (one softmax), the functions
    ``run_bench``'s pre-pass calls. Each feature
    is computed at most once: a request reads the features already computed
    without a lock, so such a lookup never waits, and computes the missing
    ones, in sorted order, under the cache's one lock, after checking again
    which of them another request has computed meanwhile. Entries are only
    valid for the cache's scene, whose fingerprint is hashed only when
    ``execute`` is given another scene object.
    """

    def __init__(self, scene: Scene,
                 registry: EncoderRegistry | dict[str, EncoderDefinition]) -> None:
        self.scene = scene
        self.geometry: PairGeometry = precompute_geometry(scene)
        self._definitions = registry.snapshot() if isinstance(registry, EncoderRegistry) else dict(registry)
        self._features: dict[tuple[str, str], RelationFeature | CategoryFeature] = {}
        self._lock = threading.Lock()  # held while missing features are computed

    def _request(self, kind: str, names: Iterable[str], compute) -> dict:
        """The ``kind`` features of ``names`` by name; ``compute`` gets the
        missing names, sorted, under the lock, and stores their features."""
        found = {}
        missing: set[str] = set()
        for name in names:
            feature = self._features.get((kind, name))
            if feature is None:
                missing.add(name)
            else:
                found[name] = feature
        if missing:
            ordered = sorted(missing)
            with self._lock:
                # a request that held the lock first may have computed some of these
                pending = [name for name in ordered if (kind, name) not in self._features]
                if pending:
                    compute(pending)
            found.update((name, self._features[kind, name]) for name in ordered)
        return found

    def relation_features(self, relations: Iterable[str]) -> dict[str, RelationFeature]:
        """The features of ``relations`` by name; the missing ones of each
        rank are evaluated in one :func:`~sceneground.dsl.eval_encoders`
        call."""
        return self._request("relation", relations, self._compute_relations)

    def relation_feature(self, relation: str) -> RelationFeature:
        return self.relation_features((relation,))[relation]

    def category_features(self, categories: Iterable[str]) -> dict[str, CategoryFeature]:
        """The features of ``categories`` by name; the missing ones are
        computed in one softmax over their similarity columns."""
        return self._request("category", categories, self._compute_categories)

    def category_feature(self, category: str) -> CategoryFeature:
        return self.category_features((category,))[category]

    def _compute_relations(self, relations: list[str]) -> None:
        features = relation_features(self.scene, self.geometry, self._definitions, relations)
        self._features.update((("relation", r), f) for r, f in features.items())

    def _compute_categories(self, categories: list[str]) -> None:
        features = category_features(self.scene, categories)
        self._features.update((("category", c), f) for c, f in features.items())


def relation_features(scene: Scene, geometry: PairGeometry,
                      definitions: dict[str, EncoderDefinition],
                      relations: list[str]) -> dict[str, RelationFeature]:
    """The features of ``relations`` on ``scene`` by name, under
    ``definitions``: one :func:`~sceneground.dsl.eval_encoders` pass per
    rank, so encoders of a rank evaluate their common subtrees once."""
    by_rank: dict[int, list[tuple[str, EncoderDefinition]]] = {}
    for relation in relations:
        try:
            defn = definitions[relation]
        except KeyError:
            raise ExecutionError(f"no active encoder for relation {relation!r}") from None
        by_rank.setdefault(relation_arity(defn.relation), []).append((relation, defn))
    features: dict[str, RelationFeature] = {}
    for group in by_rank.values():
        names, defns = zip(*group)
        features.update(zip(names, eval_encoders(defns, scene, geometry)))
    return features


def category_features(scene: Scene, categories: list[str]) -> dict[str, CategoryFeature]:
    """The features of ``categories`` on ``scene`` by name: similarity rows
    from the scene's table, else by exact label match, then one row
    :func:`stable_softmax` of the (categories, objects) matrix times
    ``CATEGORY_SCALE``."""
    sims = exact_match_rows(scene, categories)
    table = scene.similarities
    if table is not None:
        for q, category in enumerate(categories):
            column = table.column(category)
            if column is not None:
                sims[q] = column
    for q in np.flatnonzero(~sims.any(axis=1)):
        import logging  # only a warning loads it

        logging.getLogger(__name__).warning(
            "category %r matches nothing in scene %s; scores fall back to uniform",
            categories[q], scene.scene_id,
        )
    rows = stable_softmax(CATEGORY_SCALE * sims)
    rows.setflags(write=False)
    return {category: CategoryFeature(category=category, data=data)
            for category, data in zip(categories, rows)}


@dataclass(frozen=True)
class MatchingScore:
    """Final per-object scores, aligned with scene object positions.

    ``terms`` are the factors of ``data``: the target category's feature,
    then one factor per root clause in clause order; ``data`` multiplies
    them left to right.
    """

    data: np.ndarray
    object_ids: tuple[int, ...]
    terms: tuple[np.ndarray, ...] = ()

    def order(self) -> np.ndarray:
        """Positions sorted by descending score; ties keep scene order."""
        return np.argsort(-self.data, kind="stable")

    def argmax_id(self) -> int:
        """The id at ``order()[0]``: ``ndarray.argmax`` also takes the first
        of tied maxima."""
        return self.object_ids[self.data.argmax()]


def _run(expr: SymbolicExpression, categories: dict[str, CategoryFeature],
         features: dict[str, RelationFeature]) -> list[np.ndarray]:
    """The category feature, then each root clause's factor (read-only)."""
    terms = [categories[expr.category].data]
    for clause in expr.relations:
        feature = features[clause.relation].data
        anchors = [reduce(np.multiply, _run(anchor, categories, features))
                   for anchor in clause.anchors]
        arity = relation_arity(clause.relation)
        if arity == 1:
            f = feature
        elif arity == 2:
            f = feature @ anchors[0]
        else:
            f = np.einsum("ijk,j,k->i", feature, *anchors)
        f = stable_softmax(f)
        if clause.negative:
            f = f.max() - f
        f.setflags(write=False)
        terms.append(f)
    return terms


def score_features(expr: SymbolicExpression, object_ids: tuple[int, ...],
                   categories: dict[str, CategoryFeature],
                   relations: dict[str, RelationFeature]) -> MatchingScore:
    """The one path from features to a score: the expression's score and
    terms over a scene whose ids are ``object_ids``, from the features of
    its categories and relations by name (every node's, anchors included)."""
    terms = tuple(_run(expr, categories, relations))
    data = reduce(np.multiply, terms)
    data.setflags(write=False)
    return MatchingScore(data=data, object_ids=object_ids, terms=terms)


def execute(expr: SymbolicExpression, scene: Scene, cache: FeatureCache) -> MatchingScore:
    """Fetch an expression's features from the cache, then
    :func:`score_features`.

    The relation features of every clause, and the category features of
    every node, are requested from the cache at once. A scene other than the
    cache's own object must match its fingerprint (scenes are immutable, so
    the same object matches).
    """
    if scene is not cache.scene and cache.scene.fingerprint() != scene.fingerprint():
        raise ExecutionError(
            f"feature cache was built for a different scene "
            f"(cache {cache.scene.fingerprint()[:12]}, scene {scene.fingerprint()[:12]})"
        )
    relations = cache.relation_features([clause.relation for _, clause in collect_conditions(expr)])
    categories = cache.category_features(collect_categories(expr))
    return score_features(expr, scene.object_ids, categories, relations)


def rank_candidates(score: MatchingScore, top_k: int, threshold: float) -> list[int]:
    """Object ids of the strongest candidates.

    Takes the ``top_k`` highest-scoring objects, then keeps those whose score
    is at least ``threshold * max_score``; the argmax always survives.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    order = score.order()[:top_k]
    cutoff = threshold * float(score.data[order[0]])
    kept = [int(pos) for pos in order if score.data[pos] >= cutoff]
    if not kept:
        kept = [int(order[0])]
    return [score.object_ids[pos] for pos in kept]


def grounding_result(
    scene: Scene,
    expr: SymbolicExpression,
    score: MatchingScore,
    top_k: int = 5,
    threshold: float = 0.9,
) -> dict:
    """Grounding result in the wire format (scores listed in descending order)."""
    order = score.order()
    return {
        "scene_id": scene.scene_id,
        "expression": expression_to_dict(expr),
        "scores": [
            {"id": score.object_ids[int(pos)], "score": float(score.data[pos])}
            for pos in order
        ],
        "candidates": rank_candidates(score, top_k, threshold),
        "argmax": score.argmax_id(),
    }


def condition_level_eval(
    entries: list[tuple[str, SymbolicExpression, int]],
    scenes: dict[str, Scene],
    registry: EncoderRegistry | dict[str, EncoderDefinition],
    caches: dict[str, FeatureCache] | None = None,
) -> tuple[float, float]:
    """Execute every entry once and score its conditions with
    :func:`condition_precision_recall`.

    ``caches`` maps scene ids to feature caches already built for those
    scenes, which are reused; scenes without one get a cache over
    ``registry``. The mapping itself is not modified.
    """
    caches = dict(caches or {})
    scored = []
    for scene_id, expr, ground_truth in entries:
        try:
            scene = scenes[scene_id]
        except KeyError:
            raise ExecutionError(f"unknown scene {scene_id!r}") from None
        if ground_truth not in scene.index_of:
            raise ExecutionError(f"unknown ground-truth id {ground_truth} in scene {scene_id!r}")
        if scene_id not in caches:
            caches[scene_id] = FeatureCache(scene, registry)
        scored.append((scene_id, expr, ground_truth, execute(expr, scene, caches[scene_id])))
    return condition_precision_recall(scored)


def condition_precision_recall(
    scored: Iterable[tuple[str, SymbolicExpression, int, MatchingScore]],
) -> tuple[float, float]:
    """Macro-averaged precision/recall of single-condition grounding.

    Each entry is (scene id, expression, ground-truth id, its executed
    score). Root clause c predicts the argmax of ``terms[0] * terms[c]``,
    the score of that clause alone with the category. Predictions and
    ground truths are grouped per (scene, target category), categories
    compared by :func:`~sceneground.scene.normalize_label`, and set
    precision/recall are macro-averaged over groups. An empty condition set
    scores (1.0, 1.0) by convention.
    """
    predicted: dict[tuple[str, str], set[int]] = {}
    truth: dict[tuple[str, str], set[int]] = {}
    for scene_id, expr, ground_truth, score in scored:
        group = (scene_id, normalize_label(expr.category))
        category, *factors = score.terms
        for factor in factors:
            predicted.setdefault(group, set()).add(
                score.object_ids[(category * factor).argmax()])
            truth.setdefault(group, set()).add(ground_truth)

    if not predicted:
        import logging  # only a warning loads it

        logging.getLogger(__name__).warning(
            "condition-level evaluation saw no conditions; scoring (1.0, 1.0)")
        return 1.0, 1.0

    precisions = []
    recalls = []
    for group, preds in predicted.items():
        actual = truth[group]
        hit = len(preds & actual)
        precisions.append(hit / len(preds))
        recalls.append(hit / len(actual))
    return float(np.mean(precisions)), float(np.mean(recalls))
