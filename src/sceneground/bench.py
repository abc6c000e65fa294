"""Benchmark harness: ground a dataset of expressions and report aggregates.

Dataset layout: ``<dir>/scenes/*.json`` plus ``<dir>/expressions.jsonl``
where each line carries ``scene_id``, ``expression`` and ``ground_truth``.
Per-utterance grounding can run across worker threads; report records keep
the input order regardless of scheduling.
"""

from __future__ import annotations

import json
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path

import numpy as np

from .atomic import InputError, load_lines, write_text_atomic
from .executor import (
    MatchingScore,
    category_features,
    condition_precision_recall,
    relation_features,
    score_features,
)
from .expression import (
    ExpressionError,
    SymbolicExpression,
    collect_categories,
    collect_conditions,
    expression_from_dict,
    expression_to_dict,
)
from .registry import EncoderRegistry
from .scene import Scene, exact_match_rows, load_scene, precompute_geometry

__all__ = ["BenchEntry", "BenchRecord", "BenchReport", "DatasetError", "load_dataset",
           "run_bench", "report_to_dict"]

HEATMAP_RELATIONS = ("near", "far", "left", "right")


@dataclass(frozen=True)
class BenchEntry:
    scene_id: str
    expression: SymbolicExpression
    ground_truth: int
    utterance: str = ""


@dataclass
class BenchRecord:
    scene_id: str
    expression: dict
    argmax: int
    ground_truth: int
    correct: bool
    wall_ms: float


@dataclass
class BenchReport:
    records: list[BenchRecord]
    aggregates: dict
    config: dict


class DatasetError(InputError):
    """Raised for a benchmark dataset whose expressions file cannot be used."""


def load_dataset(dataset_dir: str | Path) -> tuple[dict[str, Scene], list[BenchEntry]]:
    """Scenes by id and the checked entries of ``expressions.jsonl``.

    Each non-blank line is one entry, a JSON object read by
    :func:`~sceneground.atomic.load_lines`. Every entry must name a loaded
    scene and a ground-truth object id in it; a bad line raises
    :class:`DatasetError` naming ``file:line``, and so does an expressions
    file that cannot be read (a missing dataset among them). Two scene files
    with one ``scene_id`` raise it naming both.
    """
    dataset_dir = Path(dataset_dir)
    scenes: dict[str, Scene] = {}
    paths: dict[str, Path] = {}
    for path in sorted((dataset_dir / "scenes").glob("*.json")):
        scene = load_scene(path)
        first = paths.setdefault(scene.scene_id, path)
        if first != path:
            raise DatasetError(f"{path}: scene_id {scene.scene_id!r} is also that of {first}")
        scenes[scene.scene_id] = scene
    expr_path = dataset_dir / "expressions.jsonl"
    entries = load_lines(expr_path, DatasetError, lambda raw: _parse_entry(raw, scenes))
    if not entries:
        raise DatasetError(f"{expr_path}: no entries")
    return scenes, entries


def _parse_entry(raw: dict, scenes: dict[str, Scene]) -> BenchEntry:
    """One line's entry; a fault's text leaves the line's place to the caller."""
    try:
        scene_id, expression, ground_truth = raw["scene_id"], raw["expression"], raw["ground_truth"]
    except KeyError as exc:
        raise DatasetError(f"missing {exc.args[0]}") from None
    if not isinstance(scene_id, str):
        raise DatasetError("scene_id must be a string")
    if not isinstance(ground_truth, int) or isinstance(ground_truth, bool):
        raise DatasetError("ground_truth must be an integer object id")
    scene = scenes.get(scene_id)
    if scene is None:
        raise DatasetError(f"unknown scene {scene_id!r}")
    if ground_truth not in scene.index_of:
        raise DatasetError(f"ground truth {ground_truth} not in scene {scene_id!r}")
    try:
        expression = expression_from_dict(expression)
    except ExpressionError as exc:
        raise DatasetError(str(exc)) from None
    utterance = raw.get("utterance", "")
    if not isinstance(utterance, str):
        raise DatasetError("utterance must be a string")
    return BenchEntry(scene_id=scene_id, expression=expression, ground_truth=ground_truth,
                      utterance=utterance)


def _random_baseline(scenes: dict[str, Scene], entries: list[BenchEntry]) -> float:
    """Expected accuracy of picking uniformly among same-category objects."""
    chances = []
    for entry in entries:
        count = np.count_nonzero(exact_match_rows(scenes[entry.scene_id],
                                                  [entry.expression.category]))
        chances.append(1.0 / count if count else 0.0)
    return float(np.mean(chances))


def run_bench(
    dataset_dir: str | Path,
    registry: EncoderRegistry,
    workers: int = 1,
    with_baseline: bool = False,
    plots_dir: str | Path | None = None,
) -> BenchReport:
    """Ground every entry once; its score's terms also give the
    condition-level precision/recall and, with ``plots_dir``, the per-step
    plot files.

    The run takes one snapshot of ``registry``'s active encoders. Before
    grounding, a pre-pass over each scene computes every relation feature
    its entries need (and, with ``plots_dir``, the heatmap relations) with
    :func:`~sceneground.executor.relation_features`, one shared pass per
    rank, and every category feature of its entries' expressions, anchors
    included, with :func:`~sceneground.executor.category_features`, one
    softmax pass. Each entry is then scored from those feature dicts with
    :func:`~sceneground.executor.score_features`. The pre-pass's time is the
    ``feature_ms`` aggregate, and a record's ``wall_ms`` includes neither
    relation nor category features. Each (scene, relation) and (scene,
    category) feature is computed once per run, and the heatmap files read
    the same feature dicts.
    """
    scenes, entries = load_dataset(dataset_dir)
    definitions = registry.snapshot()
    relations: dict[str, set[str]] = {
        sid: set(HEATMAP_RELATIONS) if plots_dir is not None else set() for sid in scenes}
    categories: dict[str, set[str]] = {sid: set() for sid in scenes}
    for entry in entries:
        relations[entry.scene_id].update(
            clause.relation for _, clause in collect_conditions(entry.expression))
        categories[entry.scene_id].update(collect_categories(entry.expression))

    def features_of(sid: str) -> tuple[dict, dict]:  # sorted: set order varies by process
        scene = scenes[sid]
        return (category_features(scene, sorted(categories[sid])),
                relation_features(scene, precompute_geometry(scene), definitions,
                                  sorted(relations[sid])))

    def ground_one(entry: BenchEntry) -> tuple[BenchRecord, MatchingScore]:
        started = time.perf_counter()
        score = score_features(entry.expression, scenes[entry.scene_id].object_ids,
                               *features[entry.scene_id])
        wall_ms = (time.perf_counter() - started) * 1000.0
        argmax = score.argmax_id()
        return BenchRecord(
            scene_id=entry.scene_id,
            expression=expression_to_dict(entry.expression),
            argmax=argmax,
            ground_truth=entry.ground_truth,
            correct=argmax == entry.ground_truth,
            wall_ms=wall_ms,
        ), score

    if workers > 1:  # one worker runs inline and never loads the thread pool
        from concurrent.futures import ThreadPoolExecutor

        pool_context = ThreadPoolExecutor(max_workers=workers)
    else:
        pool_context = nullcontext()
    with pool_context as pool:
        each = map if pool is None else pool.map
        started = time.perf_counter()
        features = dict(zip(scenes, each(features_of, scenes)))
        feature_ms = (time.perf_counter() - started) * 1000.0
        grounded = list(each(ground_one, entries))
    records, scores = map(list, zip(*grounded))

    precision, recall = condition_precision_recall(
        (e.scene_id, e.expression, e.ground_truth, score) for e, score in zip(entries, scores))
    aggregates = {
        "n_records": len(records),
        "accuracy": sum(r.correct for r in records) / len(records),
        "mean_wall_ms": float(np.mean([r.wall_ms for r in records])),
        "feature_ms": feature_ms,
        "condition_precision": precision,
        "condition_recall": recall,
    }
    if with_baseline:
        aggregates["random_baseline"] = _random_baseline(scenes, entries)
    config = {
        "dataset": str(dataset_dir),
        "workers": workers,
    }
    if plots_dir is not None:
        _write_plot_data(scenes, entries, scores,
                         {sid: relations for sid, (_, relations) in features.items()}, plots_dir)
    return BenchReport(records=records, aggregates=aggregates, config=config)


def report_to_dict(report: BenchReport) -> dict:
    return {
        "config": report.config,
        "aggregates": report.aggregates,
        "records": [asdict(r) for r in report.records],
    }


def _write_plot_data(scenes: dict[str, Scene], entries: list[BenchEntry],
                     scores: list[MatchingScore], relation_features: dict[str, dict],
                     out_dir: str | Path) -> None:
    """CSV matrices for feature heatmaps and per-step grounding scores.

    Heatmaps cover the symmetric/antisymmetric showcase relations per scene;
    step files hold each entry's score after its category term and after
    each successive clause (the running products of its terms). Files are
    named by position (a heatmap by its scene's in sorted id order, a step
    file by its entry's), so any scene id is safe; ``manifest.json`` maps
    each file to its scene.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"heatmaps": [], "steps": []}

    for k, (sid, scene) in enumerate(sorted(scenes.items())):
        for relation in HEATMAP_RELATIONS:
            feature = relation_features[sid][relation]
            name = f"heatmap_{k:03d}_{relation}.csv"
            write_text_atomic(out_dir / name, _csv_text(
                [[f"obj_{oid}" for oid in scene.object_ids], *feature.data.tolist()]))
            manifest["heatmaps"].append({"file": name, "scene_id": sid, "relation": relation})

    for idx, (entry, score) in enumerate(zip(entries, scores)):
        labels = ["category", *(f"clause_{n}" for n in range(1, len(score.terms)))]
        steps = zip(labels, accumulate(score.terms, np.multiply))
        name = f"steps_{idx:03d}.csv"
        write_text_atomic(out_dir / name, _csv_text(
            [["step", *[f"obj_{oid}" for oid in score.object_ids]],
             *([label, *vector.tolist()] for label, vector in steps)]))
        manifest["steps"].append({"file": name, "scene_id": entry.scene_id, "index": idx})

    write_text_atomic(out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _csv_text(rows) -> str:
    """``rows`` in the ``csv`` module's default dialect (CRLF line ends).
    Only ``--plots`` writes CSV, so ``csv`` is imported here."""
    import csv
    import io

    buffer = io.StringIO()
    csv.writer(buffer).writerows(rows)
    return buffer.getvalue()
