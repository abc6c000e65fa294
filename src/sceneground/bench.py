"""Benchmark harness: ground a dataset of expressions and report aggregates.

Dataset layout: ``<dir>/scenes/*.json`` plus ``<dir>/expressions.jsonl``
where each line carries ``scene_id``, ``expression`` and ``ground_truth``.
Per-utterance grounding can run across worker threads; report records keep
the input order regardless of scheduling.
"""

from __future__ import annotations

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .executor import FeatureCache, condition_level_eval, execute
from .expression import (
    ExpressionError,
    SymbolicExpression,
    expression_from_dict,
    expression_to_dict,
)
from .registry import EncoderRegistry
from .scene import Scene, load_scene

__all__ = ["BenchEntry", "BenchRecord", "BenchReport", "DatasetError", "load_dataset",
           "run_bench", "report_to_dict", "emit_plot_data"]

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


class DatasetError(ValueError):
    """Raised for a benchmark dataset whose expressions file cannot be used."""


def load_dataset(dataset_dir: str | Path) -> tuple[dict[str, Scene], list[BenchEntry]]:
    """Scenes by id and the checked entries of ``expressions.jsonl``.

    Every entry must name a loaded scene and a ground-truth object id in it;
    a bad line raises :class:`DatasetError` naming ``file:line``.
    """
    dataset_dir = Path(dataset_dir)
    scenes: dict[str, Scene] = {}
    for path in sorted((dataset_dir / "scenes").glob("*.json")):
        scene = load_scene(path)
        scenes[scene.scene_id] = scene
    entries: list[BenchEntry] = []
    expr_path = dataset_dir / "expressions.jsonl"
    for lineno, line in enumerate(expr_path.read_text(encoding="utf-8").splitlines(), 1):
        if line.strip():
            entries.append(_parse_entry(line, scenes, f"{expr_path}:{lineno}"))
    if not entries:
        raise DatasetError(f"{expr_path}: no entries")
    return scenes, entries


def _parse_entry(line: str, scenes: dict[str, Scene], where: str) -> BenchEntry:
    try:
        raw = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetError(f"{where}: invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise DatasetError(f"{where}: expected a JSON object")
    for key in ("scene_id", "expression", "ground_truth"):
        if key not in raw:
            raise DatasetError(f"{where}: missing {key}")
    scene_id, ground_truth = raw["scene_id"], raw["ground_truth"]
    if not isinstance(scene_id, str):
        raise DatasetError(f"{where}: scene_id must be a string")
    if not isinstance(ground_truth, int) or isinstance(ground_truth, bool):
        raise DatasetError(f"{where}: ground_truth must be an integer object id")
    if scene_id not in scenes:
        raise DatasetError(f"{where}: unknown scene {scene_id!r}")
    if ground_truth not in scenes[scene_id].index_of:
        raise DatasetError(f"{where}: ground truth {ground_truth} not in scene {scene_id!r}")
    try:
        expression = expression_from_dict(raw["expression"])
    except ExpressionError as exc:
        raise DatasetError(f"{where}: {exc}") from None
    return BenchEntry(scene_id=scene_id, expression=expression, ground_truth=ground_truth,
                      utterance=raw.get("utterance", ""))


def _random_baseline(scenes: dict[str, Scene], entries: list[BenchEntry]) -> float:
    """Expected accuracy of picking uniformly among same-category objects."""
    from .scene import normalize_label

    chances = []
    for entry in entries:
        scene = scenes[entry.scene_id]
        key = normalize_label(entry.expression.category)
        count = sum(1 for obj in scene.objects if normalize_label(obj.label) == key)
        chances.append(1.0 / count if count else 0.0)
    return float(np.mean(chances))


def _prepare(
    dataset_dir: str | Path, registry: EncoderRegistry,
) -> tuple[dict[str, Scene], list[BenchEntry], dict[str, FeatureCache]]:
    """Load and check a dataset, with one feature cache per scene."""
    scenes, entries = load_dataset(dataset_dir)
    caches = {sid: FeatureCache(scene, registry) for sid, scene in scenes.items()}
    return scenes, entries, caches


def run_bench(
    dataset_dir: str | Path,
    registry: EncoderRegistry,
    workers: int = 1,
    with_baseline: bool = False,
    plots_dir: str | Path | None = None,
) -> BenchReport:
    """Ground every entry, then score single conditions on the same caches.

    Each (scene, relation) feature is evaluated once per run. With
    ``plots_dir``, the :func:`emit_plot_data` files are written from those
    caches too.
    """
    scenes, entries, caches = _prepare(dataset_dir, registry)

    def ground_one(entry: BenchEntry) -> BenchRecord:
        started = time.perf_counter()
        score = execute(entry.expression, scenes[entry.scene_id], caches[entry.scene_id])
        wall_ms = (time.perf_counter() - started) * 1000.0
        argmax = score.argmax_id()
        return BenchRecord(
            scene_id=entry.scene_id,
            expression=expression_to_dict(entry.expression),
            argmax=argmax,
            ground_truth=entry.ground_truth,
            correct=argmax == entry.ground_truth,
            wall_ms=wall_ms,
        )

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(ground_one, entries))
    else:
        records = [ground_one(e) for e in entries]

    precision, recall = condition_level_eval(
        [(e.scene_id, e.expression, e.ground_truth) for e in entries], scenes, registry, caches)
    aggregates = {
        "n_records": len(records),
        "accuracy": sum(r.correct for r in records) / len(records),
        "mean_wall_ms": float(np.mean([r.wall_ms for r in records])),
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
        _write_plot_data(scenes, entries, caches, plots_dir)
    return BenchReport(records=records, aggregates=aggregates, config=config)


def report_to_dict(report: BenchReport) -> dict:
    return {
        "config": report.config,
        "aggregates": report.aggregates,
        "records": [asdict(r) for r in report.records],
    }


def emit_plot_data(dataset_dir: str | Path, registry: EncoderRegistry,
                   out_dir: str | Path) -> dict:
    """CSV matrices for feature heatmaps and per-step grounding scores.

    Heatmaps cover the symmetric/antisymmetric showcase relations per scene;
    step files hold the score vector after the category row and after each
    successive clause of every expression.
    """
    return _write_plot_data(*_prepare(dataset_dir, registry), out_dir)


def _write_plot_data(scenes: dict[str, Scene], entries: list[BenchEntry],
                     caches: dict[str, FeatureCache], out_dir: str | Path) -> dict:
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest: dict = {"heatmaps": [], "steps": []}

    for sid, scene in sorted(scenes.items()):
        for relation in HEATMAP_RELATIONS:
            feature = caches[sid].relation_feature(relation)
            name = f"heatmap_{sid}_{relation}.csv"
            with open(out_dir / name, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow([f"obj_{oid}" for oid in scene.ids])
                writer.writerows(feature.data.tolist())
            manifest["heatmaps"].append({"file": name, "scene_id": sid, "relation": relation})

    for idx, entry in enumerate(entries):
        scene = scenes[entry.scene_id]
        cache = caches[entry.scene_id]
        steps = [("category", cache.category_feature(entry.expression.category).data)]
        for n_clauses in range(1, len(entry.expression.relations) + 1):
            partial = SymbolicExpression(
                category=entry.expression.category,
                relations=entry.expression.relations[:n_clauses],
            )
            steps.append((f"clause_{n_clauses}", execute(partial, scene, cache).data))
        name = f"steps_{idx:03d}.csv"
        with open(out_dir / name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", *[f"obj_{oid}" for oid in scene.ids]])
            for label, vector in steps:
                writer.writerow([label, *vector.tolist()])
        manifest["steps"].append({"file": name, "scene_id": entry.scene_id, "index": idx})

    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n",
                                           encoding="utf-8")
    return manifest
