"""Seeded input generators for the benchmark.

Every generator takes its randomness from :func:`stream`, so the same
workload seed and keys give byte-identical inputs and another seed gives
other inputs. Inputs that the program reads from disk are written with
:func:`write_json`, whose output depends only on the value written.

Scenes span the tens to hundreds of boxes of ScanNet-based grounding
benchmarks; expressions control nesting depth, negation share and whether a
ternary ``between`` clause appears.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

LABELS = (
    "chair", "table", "desk", "sofa", "bed", "cabinet", "shelf", "lamp", "door",
    "window", "monitor", "plant", "box", "trash can", "pillow", "picture",
)
UNARY = ("large", "small", "high", "low", "on_the_floor", "against_the_wall", "at_the_corner")
BINARY = ("near", "far", "above", "below", "left", "right", "front", "behind")
NON_TERNARY = UNARY + BINARY
ARITY = {**{r: 1 for r in UNARY}, **{r: 2 for r in BINARY}, "between": 3}

# seed-stream tags, one per kind of input
WARM, COLD, BENCH, SUITE, OPT = 1, 2, 3, 4, 5

ROOM_SPAN_M = 8.0
NEGATION_SHARE = 0.2
WARM_TERNARY_SHARE = 0.2
BENCH_INSTANCES = 4
# margin suites: the builtin encoder must order each case by this factor, and
# every scene carries the same number of cases, so evaluation cost does not
# depend on the seed
SUITE_MARGIN = 1.3
SUITE_CASES_PER_SCENE = 5
# ground_cold: per block of 48 ops, 16 at each N and one of those 16 with
# `between`. The exact 1/16 ternary share keeps p50 inside the N=50 mode and
# p90 inside the non-ternary N=100 mode, each at least 5 percentiles from a
# mode boundary, so sampling noise cannot flip a quantile between modes.
COLD_SIZES = (25, 50, 100)
COLD_PER_SIZE = 16
COLD_BLOCK = COLD_PER_SIZE * len(COLD_SIZES)


def stream(seed: int, *keys: int) -> np.random.Generator:
    """Independent generator for one (seed, keys) input stream."""
    return np.random.default_rng(np.random.SeedSequence([seed, *keys]))


def derived_seed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def write_json(path: Path, value: object) -> None:
    path.write_text(json.dumps(value, sort_keys=True) + "\n", encoding="utf-8")


def random_scene(rng: np.random.Generator, n: int, scene_id: str) -> dict:
    """Scene wire-format dict with ``n`` boxes scattered over a square room."""
    objects = []
    for i in range(n):
        center = rng.uniform((0.0, 0.0, 0.1), (ROOM_SPAN_M, ROOM_SPAN_M, 2.5))
        size = rng.uniform(0.2, 2.0, 3)
        objects.append({
            "id": i,
            "label": LABELS[int(rng.integers(len(LABELS)))],
            "bbox": [float(v) for v in (*center, *size)],
        })
    return {"scene_id": scene_id, "objects": objects}


def random_expression(rng: np.random.Generator, labels: list[str], depth: int,
                      ternary: bool) -> dict:
    """Expression wire-format dict over ``labels`` with nesting depth <= ``depth``.

    With ``ternary`` the root carries one ``between`` clause (depth >= 2 is
    enforced); otherwise no clause anywhere is ternary. Each clause is
    negated with probability ``NEGATION_SHARE``.
    """
    if ternary:
        depth = max(depth, 2)

    def node(level: int) -> dict:
        category = labels[int(rng.integers(len(labels)))]
        n_clauses = int(rng.integers(1, 3)) if level == 1 else int(rng.integers(0, 2))
        clauses = []
        for k in range(n_clauses):
            if ternary and level == 1 and k == 0:
                relation = "between"
            elif level < depth:
                relation = NON_TERNARY[int(rng.integers(len(NON_TERNARY)))]
            else:
                relation = UNARY[int(rng.integers(len(UNARY)))]
            clauses.append({
                "relation_name": relation,
                "anchors": [node(level + 1) for _ in range(ARITY[relation] - 1)],
                "negative": bool(rng.random() < NEGATION_SHARE),
            })
        return {"category": category, "relations": clauses}

    return node(1)


def expression_pool(rng: np.random.Generator, labels: list[str], count: int) -> list[dict]:
    """``count`` expressions, exactly ``round(count * WARM_TERNARY_SHARE)`` with `between`."""
    n_ternary = round(count * WARM_TERNARY_SHARE)
    flags = np.zeros(count, dtype=bool)
    flags[:n_ternary] = True
    rng.shuffle(flags)
    return [random_expression(rng, labels, int(rng.integers(1, 4)), bool(t)) for t in flags]


def scene_labels(scene: dict) -> list[str]:
    return sorted({obj["label"] for obj in scene["objects"]})


def warm_inputs(seed: int, n_scenes: int = 4, n: int = 100,
                pool: int = 500) -> list[tuple[dict, list[dict]]]:
    """ground_warm: (scene, expression pool) per scene."""
    out = []
    for k in range(n_scenes):
        rng = stream(seed, WARM, k)
        scene = random_scene(rng, n, f"warm_{k}")
        out.append((scene, expression_pool(rng, scene_labels(scene), pool)))
    return out


def cold_op(seed: int, child: int, k: int) -> tuple[dict, dict]:
    """ground_cold op ``k`` of child ``child``: a fresh scene and an expression."""
    block, pos = divmod(k, COLD_BLOCK)
    plan = [(n, j == 0) for n in COLD_SIZES for j in range(COLD_PER_SIZE)]
    order = stream(seed, COLD, 0, child, block).permutation(COLD_BLOCK)
    n, ternary = plan[int(order[pos])]
    rng = stream(seed, COLD, 1, child, k)
    scene = random_scene(rng, n, f"cold_{child}_{k}")
    expr = random_expression(rng, scene_labels(scene), int(rng.integers(1, 4)), ternary)
    return scene, expr


def bench_seeds(seed: int) -> list[int]:
    """Distinct mini-benchmark seeds derived from the workload seed."""
    seeds: list[int] = []
    k = 0
    while len(seeds) < BENCH_INSTANCES:
        s = derived_seed(seed, BENCH, k)
        if s not in seeds:
            seeds.append(s)
        k += 1
    return seeds


def margin_suite(rng: np.random.Generator, relation: str, n_cases: int = 30,
                 n: int = 20) -> tuple[dict, list[dict]]:
    """Triplet suite (load_suite wire format) and its scenes.

    Case orderings come from the builtin encoder with
    ``lhs > SUITE_MARGIN * rhs``. Every scene carries exactly
    ``SUITE_CASES_PER_SCENE`` cases, so a suite always has the same number
    of scenes for a given ``n_cases``. One extra case mirrors the first with
    target and distractor swapped, so no candidate can pass every case and
    every search runs its full budget.
    """
    from sceneground import encoder_to_dsl, eval_encoder, precompute_geometry
    from sceneground.scene import scene_from_dict

    arity = ARITY[relation]
    defn = encoder_to_dsl(relation)
    scenes: list[dict] = []
    cases: list[dict] = []
    attempts = 0
    while len(cases) < n_cases:
        raw = random_scene(rng, n, f"{relation}_{attempts}")
        attempts += 1
        scene = scene_from_dict(raw)
        data = eval_encoder(defn, scene, precompute_geometry(scene)).data
        found: list[dict] = []
        for _ in range(200):
            picks = [int(v) for v in rng.integers(0, n, 1 + arity)]
            if len(set(picks)) < len(picks):
                continue
            t, d, *anchors = picks
            lhs, rhs = data[(t, *anchors)], data[(d, *anchors)]
            if rhs > 0 and lhs > SUITE_MARGIN * rhs:
                case = {"scene_id": raw["scene_id"], "target": t, "distractor": d}
                if arity >= 2:
                    case["anchor"] = anchors[0]
                if arity == 3:
                    case["anchor2"] = anchors[1]
                found.append(case)
                if len(found) == SUITE_CASES_PER_SCENE:
                    break
        if len(found) == SUITE_CASES_PER_SCENE:
            scenes.append(raw)
            cases.extend(found)
    mirrored = dict(cases[0], target=cases[0]["distractor"], distractor=cases[0]["target"])
    return {"relation": relation, "cases": [*cases, mirrored]}, scenes
