"""Seeded synthetic grounding benchmark: 5 scenes, 40 referring expressions.

Every query is constructed so the intended target wins by a wide geometric
margin (the near chair is ~5x closer than the next one, the corner stool has
near-zero wall gaps, and so on), and every queried category has several
same-category distractors so random choice stays weak. Directional targets
are placed with the same viewer convention the encoders use: a viewer at the
scene's xy-centroid facing the anchor.

The generator only does explicit vector placement; it never runs the
grounding pipeline, so benchmark labels stay independent of the code they
evaluate. Each scene is written by :func:`save_scene`, the one scene writer,
from a :class:`Scene`, whose constructor checks boxes and grounds nothing.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .atomic import write_text_atomic
from .scene import Scene, save_scene

__all__ = ["generate_mini_benchmark"]


@dataclass
class _Obj:
    id: int
    label: str
    x: float
    y: float
    z: float
    w: float
    d: float
    h: float

    def row(self) -> list[float]:
        return [self.x, self.y, self.z, self.w, self.d, self.h]


def _clause(relation: str, *anchors: dict, negative: bool = False) -> dict:
    return {"relation_name": relation, "anchors": list(anchors), "negative": negative}


def _expr(category: str, *clauses: dict) -> dict:
    return {"category": category, "relations": list(clauses)}


def _cat(category: str) -> dict:
    return {"category": category}


def _query(scene_id: str, utterance: str, expression: dict, ground_truth: int) -> dict:
    return {
        "scene_id": scene_id,
        "utterance": utterance,
        "expression": expression,
        "ground_truth": ground_truth,
    }


def _jitter(rng: np.random.Generator, objs: list[_Obj], skip: set[int], scale: float = 0.05) -> None:
    for obj in objs:
        if obj.id in skip:
            continue
        obj.x += float(rng.uniform(-scale, scale))
        obj.y += float(rng.uniform(-scale, scale))


def _scene_prox(rng: np.random.Generator) -> tuple[list[_Obj], list[dict]]:
    sid = "mini_prox"
    objs = [
        _Obj(0, "table", 2.0, 2.0, 0.4, 1.6, 1.0, 0.8),
        _Obj(1, "fridge", 8.5, 1.0, 0.9, 1.0, 1.0, 1.8),
        _Obj(2, "door", 0.4, 6.0, 1.0, 0.3, 1.2, 2.0),
        _Obj(10, "chair", 2.8, 2.7, 0.45, 0.5, 0.5, 0.9),
        _Obj(11, "chair", 7.8, 1.7, 0.45, 0.5, 0.5, 0.9),
        _Obj(12, "chair", 5.2, 6.5, 0.45, 0.5, 0.5, 0.9),
        _Obj(13, "chair", 9.4, 7.4, 0.45, 0.5, 0.5, 0.9),
        _Obj(14, "chair", 1.2, 5.6, 0.45, 0.5, 0.5, 0.9),
        _Obj(20, "box", 5.25, 1.5, 0.25, 0.5, 0.5, 0.5),
        _Obj(21, "box", 5.2, 5.3, 0.25, 0.5, 0.5, 0.5),
        _Obj(22, "box", 1.2, 0.8, 0.25, 0.5, 0.5, 0.5),
        _Obj(23, "box", 8.0, 4.6, 0.25, 0.5, 0.5, 0.5),
    ]
    queries = [
        _query(sid, "the chair near the table",
               _expr("chair", _clause("near", _cat("table"))), 10),
        _query(sid, "the chair near the fridge",
               _expr("chair", _clause("near", _cat("fridge"))), 11),
        _query(sid, "the chair far from the table",
               _expr("chair", _clause("far", _cat("table"))), 13),
        _query(sid, "the box between the table and the fridge",
               _expr("box", _clause("between", _cat("table"), _cat("fridge"))), 20),
        _query(sid, "the chair near the door",
               _expr("chair", _clause("near", _cat("door"))), 14),
        _query(sid, "the box near the table",
               _expr("box", _clause("near", _cat("table"))), 22),
        _query(sid, "the chair that is not near the table",
               _expr("chair", _clause("near", _cat("table"), negative=True)), 13),
        _query(sid, "the box that is not between the table and the fridge",
               _expr("box", _clause("between", _cat("table"), _cat("fridge"), negative=True)), 22),
    ]
    _jitter(rng, objs, skip=set())
    return objs, queries


def _scene_vert(rng: np.random.Generator) -> tuple[list[_Obj], list[dict]]:
    sid = "mini_vert"
    objs = [
        _Obj(0, "desk", 3.0, 3.0, 0.4, 1.4, 0.8, 0.8),
        _Obj(1, "desk", 8.0, 7.0, 0.4, 1.4, 0.8, 0.8),
        _Obj(10, "shelf", 3.0, 3.0, 1.1, 1.2, 0.3, 0.4),
        _Obj(11, "shelf", 7.0, 6.0, 1.8, 1.2, 0.3, 0.4),
        _Obj(12, "shelf", 0.8, 6.5, 0.5, 1.2, 0.3, 0.4),
        _Obj(13, "shelf", 5.5, 0.8, 1.3, 1.2, 0.3, 0.4),
        _Obj(20, "lamp", 3.0, 3.0, 2.4, 0.3, 0.3, 0.4),
        _Obj(21, "lamp", 7.0, 2.0, 1.9, 0.3, 0.3, 0.4),
        _Obj(22, "lamp", 0.5, 0.5, 0.2, 0.3, 0.3, 0.4),
        _Obj(23, "lamp", 9.4, 4.0, 1.5, 0.3, 0.3, 0.4),
        _Obj(30, "monitor", 3.2, 3.0, 0.98, 0.5, 0.2, 0.35),
        _Obj(31, "monitor", 7.5, 2.5, 0.75, 0.5, 0.2, 0.35),
        _Obj(32, "monitor", 0.8, 1.8, 0.55, 0.5, 0.2, 0.35),
    ]
    queries = [
        _query(sid, "the shelf above the desk",
               _expr("shelf", _clause("above", _cat("desk"))), 10),
        _query(sid, "the lamp above the desk",
               _expr("lamp", _clause("above", _cat("desk"))), 20),
        _query(sid, "the monitor below the shelf",
               _expr("monitor", _clause("below", _cat("shelf"))), 30),
        _query(sid, "the lamp on the floor",
               _expr("lamp", _clause("on_the_floor")), 22),
        _query(sid, "the lamp up high",
               _expr("lamp", _clause("high")), 20),
        _query(sid, "the shelf mounted low",
               _expr("shelf", _clause("low")), 12),
        _query(sid, "the desk below the shelf",
               _expr("desk", _clause("below", _cat("shelf"))), 0),
        _query(sid, "the monitor near the desk",
               _expr("monitor", _clause("near", _cat("desk"))), 30),
    ]
    # vertical stacks (desk 0 / shelf 10 / lamp 20 / monitor 30) must stay aligned
    _jitter(rng, objs, skip={0, 10, 20, 30})
    return objs, queries


def _scene_lateral(rng: np.random.Generator) -> tuple[list[_Obj], list[dict]]:
    sid = "mini_lateral"
    sofa = _Obj(0, "sofa", 5.0, 7.2, 0.5, 2.0, 0.9, 1.0)
    tv = _Obj(1, "tv", 5.0, 1.5, 1.0, 1.6, 0.3, 0.9)
    # lateral pairs start at their anchor so the centroid is exact, then get
    # split along the viewer-dependent axis without moving the pair's mean
    plant_r = _Obj(10, "plant", sofa.x, sofa.y, 0.4, 0.5, 0.5, 0.8)
    plant_l = _Obj(11, "plant", sofa.x, sofa.y, 0.4, 0.5, 0.5, 0.8)
    can_f = _Obj(20, "trash can", tv.x, tv.y, 0.25, 0.35, 0.35, 0.5)
    can_b = _Obj(21, "trash can", tv.x, tv.y, 0.25, 0.35, 0.35, 0.5)
    chair_r = _Obj(30, "chair", tv.x, tv.y, 0.45, 0.5, 0.5, 0.9)
    chair_l = _Obj(31, "chair", tv.x, tv.y, 0.45, 0.5, 0.5, 0.9)
    rest = [
        _Obj(12, "plant", 2.0, 1.0, 0.4, 0.5, 0.5, 0.8),
        _Obj(13, "plant", 8.6, 4.6, 0.4, 0.5, 0.5, 0.8),
        _Obj(22, "trash can", 8.5, 5.0, 0.25, 0.35, 0.35, 0.5),
        _Obj(32, "chair", 3.5, 6.0, 0.45, 0.5, 0.5, 0.9),
    ]
    objs = [sofa, tv, plant_r, plant_l, can_f, can_b, chair_r, chair_l, *rest]

    centroid = np.array([np.mean([o.x for o in objs]), np.mean([o.y for o in objs])])

    def split(pair: tuple[_Obj, _Obj], anchor: _Obj, direction: str, offset: float) -> None:
        v = np.array([anchor.x, anchor.y]) - centroid
        v = v / math.hypot(*v)
        axis = np.array([-v[1], v[0]]) if direction == "lateral" else v
        a, b = pair
        a.x, a.y = anchor.x + offset * axis[0], anchor.y + offset * axis[1]
        b.x, b.y = anchor.x - offset * axis[0], anchor.y - offset * axis[1]

    split((plant_r, plant_l), sofa, "lateral", 1.6)   # +u side scores as "right"
    split((chair_r, chair_l), tv, "lateral", 1.8)
    split((can_b, can_f), tv, "facing", 1.2)          # +v side scores as "behind"

    queries = [
        _query(sid, "the plant to the right of the sofa",
               _expr("plant", _clause("right", _cat("sofa"))), 10),
        _query(sid, "the plant to the left of the sofa",
               _expr("plant", _clause("left", _cat("sofa"))), 11),
        _query(sid, "the trash can in front of the tv",
               _expr("trash can", _clause("front", _cat("tv"))), 20),
        _query(sid, "the trash can behind the tv",
               _expr("trash can", _clause("behind", _cat("tv"))), 21),
        _query(sid, "the chair to the right of the tv",
               _expr("chair", _clause("right", _cat("tv"))), 30),
        _query(sid, "the chair to the left of the tv",
               _expr("chair", _clause("left", _cat("tv"))), 31),
        _query(sid, "the plant near the tv",
               _expr("plant", _clause("near", _cat("tv"))), 12),
        _query(sid, "the chair near the sofa",
               _expr("chair", _clause("near", _cat("sofa"))), 32),
    ]
    _jitter(rng, objs, skip={o.id for o in objs} - {12, 13, 22, 32})
    return objs, queries


def _scene_size(rng: np.random.Generator) -> tuple[list[_Obj], list[dict]]:
    sid = "mini_size"
    objs = [
        _Obj(0, "bed", 1.8, 4.0, 0.5, 2.0, 1.6, 1.0),
        _Obj(1, "wardrobe", 9.5, 0.5, 1.0, 1.0, 1.0, 2.0),
        _Obj(2, "plant", 4.0, 7.7, 0.5, 0.6, 0.6, 1.0),
        _Obj(10, "box", 5.0, 2.0, 0.6, 2.0, 1.5, 1.2),
        _Obj(11, "box", 3.6, 1.0, 0.15, 0.4, 0.4, 0.3),
        _Obj(12, "box", 3.0, 4.2, 0.3, 0.9, 0.8, 0.6),
        _Obj(13, "box", 7.0, 3.2, 0.3, 0.9, 0.8, 0.6),
        _Obj(20, "cabinet", 0.3, 4.0, 0.6, 0.6, 0.6, 1.2),
        _Obj(21, "cabinet", 5.0, 4.6, 0.6, 0.6, 0.6, 1.2),
        _Obj(22, "cabinet", 8.4, 1.2, 0.6, 0.6, 0.6, 1.2),
        _Obj(30, "stool", 9.6, 7.6, 0.3, 0.5, 0.5, 0.6),
        _Obj(31, "stool", 4.2, 2.9, 0.3, 0.5, 0.5, 0.6),
        _Obj(32, "stool", 4.6, 6.9, 0.3, 0.5, 0.5, 0.6),
    ]
    queries = [
        _query(sid, "the large box",
               _expr("box", _clause("large")), 10),
        _query(sid, "the small box",
               _expr("box", _clause("small")), 11),
        _query(sid, "the cabinet against the wall",
               _expr("cabinet", _clause("against_the_wall")), 20),
        _query(sid, "the stool at the corner",
               _expr("stool", _clause("at_the_corner")), 30),
        _query(sid, "the box near the bed",
               _expr("box", _clause("near", _cat("bed"))), 12),
        _query(sid, "the cabinet near the wardrobe",
               _expr("cabinet", _clause("near", _cat("wardrobe"))), 22),
        _query(sid, "the stool near the plant",
               _expr("stool", _clause("near", _cat("plant"))), 32),
        _query(sid, "the box that is not large",
               _expr("box", _clause("large", negative=True)), 11),
    ]
    # hull anchors (0, 1, 2, 20, 30) pin the walls; keep them exact
    _jitter(rng, objs, skip={0, 1, 2, 20, 30})
    return objs, queries


def _scene_mixed(rng: np.random.Generator) -> tuple[list[_Obj], list[dict]]:
    sid = "mini_mixed"
    objs = [
        _Obj(0, "door", 0.3, 4.0, 1.0, 0.3, 1.0, 2.0),
        _Obj(1, "window", 9.7, 4.0, 1.5, 0.2, 1.2, 1.2),
        _Obj(10, "desk", 2.0, 6.5, 0.4, 1.4, 0.8, 0.8),
        _Obj(11, "desk", 7.0, 1.5, 0.4, 1.4, 0.8, 0.8),
        _Obj(12, "desk", 6.2, 7.6, 0.4, 1.4, 0.8, 0.8),
        _Obj(20, "shelf", 2.0, 6.5, 1.2, 1.2, 0.3, 0.4),
        _Obj(21, "shelf", 9.0, 7.1, 1.2, 1.2, 0.3, 0.4),
        _Obj(22, "shelf", 4.4, 0.5, 0.9, 1.2, 0.3, 0.4),
        _Obj(30, "chair", 2.5, 5.9, 0.45, 0.5, 0.5, 0.9),
        _Obj(31, "chair", 7.8, 2.4, 0.45, 0.5, 0.5, 0.9),
        _Obj(32, "chair", 5.0, 4.0, 0.45, 0.5, 0.5, 0.9),
        _Obj(33, "chair", 9.3, 7.5, 0.45, 0.5, 0.5, 0.9),
        _Obj(40, "book", 2.0, 6.5, 1.55, 0.2, 0.15, 0.25),
        _Obj(41, "book", 7.0, 1.5, 0.95, 0.2, 0.15, 0.25),
        _Obj(42, "book", 6.2, 7.6, 0.95, 0.2, 0.15, 0.25),
    ]
    queries = [
        _query(sid, "the shelf above the desk near the door",
               _expr("shelf", _clause("above", _expr("desk", _clause("near", _cat("door"))))), 20),
        _query(sid, "the book above the shelf near the door",
               _expr("book", _clause("above", _expr("shelf", _clause("near", _cat("door"))))), 40),
        _query(sid, "the chair near the desk near the door",
               _expr("chair", _clause("near", _expr("desk", _clause("near", _cat("door"))))), 30),
        _query(sid, "the chair that is not near a desk",
               _expr("chair", _clause("near", _cat("desk"), negative=True)), 33),
        _query(sid, "the chair between the door and the window",
               _expr("chair", _clause("between", _cat("door"), _cat("window"))), 32),
        _query(sid, "the book near the door",
               _expr("book", _clause("near", _cat("door"))), 40),
        _query(sid, "the desk in front of the window",
               _expr("desk", _clause("front", _cat("window"))), 11),
        _query(sid, "the shelf near the chair at the corner",
               _expr("shelf", _clause("near", _expr("chair", _clause("at_the_corner")))), 21),
    ]
    # stacked trios and hull/corner anchors stay exact
    _jitter(rng, objs, skip={0, 1, 10, 11, 20, 33, 40, 41})
    return objs, queries


_SCENES = [_scene_prox, _scene_vert, _scene_lateral, _scene_size, _scene_mixed]


def generate_mini_benchmark(out_dir: str | Path, seed: int = 7) -> dict:
    """Write scenes/ and expressions.jsonl; returns a small manifest dict."""
    out_dir = Path(out_dir)
    scenes_dir = out_dir / "scenes"
    scenes_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    all_queries: list[dict] = []
    scene_ids: list[str] = []
    for build in _SCENES:
        objs, queries = build(rng)
        sid = queries[0]["scene_id"]
        scene_ids.append(sid)
        save_scene(Scene(sid, [o.id for o in objs], [o.label for o in objs],
                         [o.row() for o in objs]), scenes_dir / f"{sid}.json")
        all_queries.extend(queries)
    lines = [json.dumps(q, ensure_ascii=False) for q in all_queries]
    write_text_atomic(out_dir / "expressions.jsonl", "\n".join(lines) + "\n")
    return {"scenes": scene_ids, "n_queries": len(all_queries), "seed": seed}
