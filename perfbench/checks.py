"""Output checks and the straight-line reference executor.

Every check returns ``None`` when the output is right and a one-line
reason otherwise; callers count each reason as a failed op. Checks run
outside the timed region.
"""

from __future__ import annotations

import math

import numpy as np

REFERENCE_ATOL = 1e-9


def check_score(data, object_ids, scene_ids) -> str | None:
    """A score vector holds one finite, nonnegative score per scene object."""
    data = np.asarray(data, dtype=np.float64)
    if data.shape != (len(scene_ids),):
        return f"score shape {data.shape}, scene has {len(scene_ids)} objects"
    if not np.all(np.isfinite(data)):
        return "score vector has non-finite entries"
    if np.any(data < 0.0):
        return "score vector has negative entries"
    if list(object_ids) != list(scene_ids):
        return "score object ids do not match the scene"
    return None


def check_argmax(argmax, data, scene_ids) -> str | None:
    """The reported argmax is a scene id that holds the largest score."""
    if argmax not in scene_ids:
        return f"argmax {argmax!r} is not an id in the scene"
    if data[list(scene_ids).index(argmax)] != np.max(data):
        return f"argmax {argmax} does not hold the largest score"
    return None


def check_grounding(score, result: dict, scene) -> str | None:
    """MatchingScore plus the grounding_result dict built from it."""
    ids = scene.ids
    problem = check_score(score.data, score.object_ids, ids)
    if problem is None:
        problem = check_argmax(score.argmax_id(), score.data, ids)
    if problem is None and result["argmax"] != score.argmax_id():
        problem = f"result argmax {result['argmax']} != score argmax {score.argmax_id()}"
    if problem is None and len(result["scores"]) != len(ids):
        problem = f"result lists {len(result['scores'])} scores for {len(ids)} objects"
    return problem


def _softmax(values: np.ndarray) -> np.ndarray:
    e = np.exp(values - values.max())
    return e / e.sum()


def _norm_label(text: str) -> str:
    return " ".join(text.casefold().split())


class Reference:
    """Straight-line executor over one scene, independent of ``sceneground.executor``.

    Features come from the public ``eval_encoder`` on the registry's active
    definitions and are memoized per relation; categories use exact label
    matching, as the executor does for scenes without a similarity table.
    """

    def __init__(self, scene, definitions: dict) -> None:
        from sceneground import precompute_geometry

        self.scene = scene
        self.definitions = definitions
        self.geometry = precompute_geometry(scene)
        self.labels = [_norm_label(obj.label) for obj in scene.objects]
        self.features: dict[str, np.ndarray] = {}

    def feature(self, relation: str) -> np.ndarray:
        from sceneground import eval_encoder

        if relation not in self.features:
            defn = self.definitions[relation]
            self.features[relation] = eval_encoder(defn, self.scene, self.geometry).data
        return self.features[relation]

    def scores(self, node: dict) -> np.ndarray:
        """Scores of an expression in wire format (a parsed JSON dict)."""
        key = _norm_label(node["category"])
        score = _softmax(np.array([100.0 if label == key else 0.0 for label in self.labels]))
        for clause in node.get("relations", []):
            f = self.feature(clause["relation_name"])
            anchors = [self.scores(a) for a in clause.get("anchors", [])]
            if f.ndim == 1:
                g = f.copy()
            elif f.ndim == 2:
                g = (f * anchors[0][None, :]).sum(axis=1)
            else:
                g = (f * anchors[0][None, :, None] * anchors[1][None, None, :]).sum(axis=(1, 2))
            g = _softmax(g)
            if clause.get("negative", False):
                g = g.max() - g
            score = score * g
        return score


def check_reference(scores, reference: np.ndarray) -> str | None:
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != reference.shape:
        return f"score shape {scores.shape} != reference shape {reference.shape}"
    err = float(np.max(np.abs(scores - reference)))
    if not err <= REFERENCE_ATOL:
        return f"scores differ from the reference executor by {err:.3g}"
    return None


def check_bench(report, answers: list[int]) -> tuple[str | None, float]:
    """Records match the generator's known answers; returns (problem, accuracy)."""
    records = report.records
    if len(records) != len(answers):
        return f"{len(records)} records for {len(answers)} queries", 0.0
    right = sum(r.argmax == a and r.ground_truth == a for r, a in zip(records, answers))
    accuracy = right / len(answers)
    if right != len(answers):
        return f"accuracy {accuracy:.4f} against the generator's known answers", accuracy
    return None, accuracy


def check_optimize(defn, history: list[float], log: list[dict], relation: str,
                   n_iter: int, budget: int) -> str | None:
    """Full budget logged, monotone history, a valid winner that cannot pass all."""
    from sceneground import validate_definition

    if len(log) != budget:
        return f"logged {len(log)} candidates, budget is {budget}"
    if len(history) != n_iter:
        return f"history has {len(history)} entries for {n_iter} iterations"
    if any(b < a for a, b in zip(history, history[1:])):
        return f"history decreases: {history}"
    if not all(math.isfinite(h) and 0.0 <= h < 1.0 for h in history):
        return f"history {history} leaves [0, 1) despite the mirrored case"
    if defn.relation != relation:
        return f"winner is for {defn.relation!r}, not {relation!r}"
    try:
        validate_definition(defn)
    except ValueError as exc:
        return f"winner fails validation: {exc}"
    return None
