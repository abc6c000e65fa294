"""One benchmark worker: a fresh interpreter that sets up one workload and
runs its closed loop (one client, one op at a time) for a slice of the run.

Usage: ``python3 perfbench/worker.py SPEC.json`` (written by ``run.py``).
The worker prints ``READY`` once set-up is done, right before the first
timed op, and its result as one JSON line when the slice is over. Each op
is timed in wall-clock time around the library calls only; input generation
and output checks happen outside the timed region. Between ops, at most every
``PROBE_EVERY_S``, the worker takes a speed-probe reading, and one more right
after set-up; ``run.py`` scales op and set-up times by them. With
tracing on, odd ops run with the library's public calls wrapped in spans and
even ops run unwrapped, so the two halves measure the tracing overhead under
the same conditions.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import gen  # noqa: E402
import probe  # noqa: E402
from spans import Tracer  # noqa: E402

OPT_CONFIG = {"n_iter": 3, "n_sample": 3, "top_k": 2}
# A `between` search costs about 7x a unary or binary one. One in five ops
# keeps p90 inside the `between` mode and leaves enough cheaper ops for a
# steady p50.
OPT_ROTATION = ("at_the_corner", "near", "at_the_corner", "near", "between")
OPT_BUDGET = OPT_CONFIG["n_sample"] * (1 + (OPT_CONFIG["n_iter"] - 1) * OPT_CONFIG["top_k"])
# a reading costs about 1 ms, so this keeps probing near 1% of the loop
PROBE_EVERY_S = 0.1


class Clock:
    """Times one op; on traced ops installs the span wrappers around it."""

    def __init__(self, tracer: Tracer | None) -> None:
        self.tracer = tracer
        self.traced = False
        self.op = 0
        self.elapsed = 0.0

    def __call__(self, op: int, traced: bool) -> "Clock":
        self.op, self.traced = op, traced
        return self

    def __enter__(self) -> "Clock":
        if self.traced:
            self.tracer.install()
        self._t0 = time.perf_counter()
        if self.traced:
            self._span = self.tracer.begin_op(self.op)
        return self

    def __exit__(self, *exc) -> None:
        if self.traced:
            self.tracer.end_op(self._span)
        self.elapsed = time.perf_counter() - self._t0
        if self.traced:
            self.tracer.remove()
            self.tracer.measure_peaks()


def setup_ground_warm(sg, spec: dict, child: int):
    registry = sg.EncoderRegistry()
    scenes = [sg.load_scene(p) for p in spec["scenes"]]
    caches = [sg.FeatureCache(s, registry) for s in scenes]
    for scene, cache in zip(scenes, caches):
        for relation in sg.ALL_RELATIONS:
            cache.relation_feature(relation)
        for label in set(scene.labels):
            cache.category_feature(label)
    pools = [[sg.parse_expression(line) for line in Path(p).read_text().splitlines()]
             for p in spec["pools"]]

    def op(k: int, clock: Clock):
        i = k % len(scenes)
        j = (k // len(scenes) + 97 * child) % len(pools[i])
        scene, cache, expr = scenes[i], caches[i], pools[i][j]
        with clock:
            score = sg.execute(expr, scene, cache)
            result = sg.grounding_result(scene, expr, score)
        sample = {"scene": i, "expr": j, "scores": score.data.tolist()}
        return 1, checks.check_grounding(score, result, scene), sample, {}

    return op


def setup_ground_cold(sg, spec: dict, child: int):
    registry = sg.EncoderRegistry()
    work = Path(spec["work"])

    def op(k: int, clock: Clock):
        raw_scene, raw_expr = gen.cold_op(spec["seed"], child, k)
        path = work / f"cold_{child}_{k}.json"
        gen.write_json(path, raw_scene)
        text = json.dumps(raw_expr)
        with clock:
            scene = sg.load_scene(path)
            expr = sg.parse_expression(text)
            cache = sg.FeatureCache(scene, registry)
            score = sg.execute(expr, scene, cache)
            result = sg.grounding_result(scene, expr, score)
        sample = {"path": str(path), "expr": raw_expr, "scores": score.data.tolist()}
        return 1, checks.check_grounding(score, result, scene), sample, {}

    return op


def setup_bench(sg, spec: dict, child: int):
    registry = sg.EncoderRegistry()
    datasets, answers = spec["datasets"], spec["answers"]

    def op(k: int, clock: Clock):
        d = (k + child) % len(datasets)
        with clock:
            report = sg.bench.run_bench(datasets[d], registry, workers=1)
        problem, accuracy = checks.check_bench(report, answers[d])
        return len(report.records), problem, None, {"accuracy": accuracy}

    return op


def setup_optimize(sg, spec: dict, child: int):
    from sceneground.optimizer import MutationSource, load_suite

    registry = sg.EncoderRegistry()
    suites = [load_suite(path, scenes) for path, scenes in spec["suites"]]
    by_relation = {suite.relation: suite for suite in suites}

    def op(k: int, clock: Clock):
        suite = by_relation[OPT_ROTATION[k % len(OPT_ROTATION)]]
        cfg = sg.OptimizerConfig(**OPT_CONFIG, seed=gen.derived_seed(spec["seed"], gen.OPT, child, k))
        source = MutationSource()
        log: list[dict] = []
        with clock:
            defn, history = sg.optimize_encoder(suite.relation, suite, source, registry, cfg,
                                                None, log)
        problem = checks.check_optimize(defn, history, log, suite.relation,
                                        cfg.n_iter, OPT_BUDGET)
        unique = len({entry["definition_hash"] for entry in log}) / max(1, len(log))
        return len(log), problem, None, {"pass_rate": history[-1] if history else 0.0,
                                         "unique_ratio": unique}

    return op


def peak_rss_mb() -> float:
    """Peak resident set of this process.

    ``getrusage`` would also count the parent's high-water mark, which Linux
    carries over fork and exec; ``VmHWM`` belongs to this process's own
    address space. ``getrusage`` remains the fallback elsewhere.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


SETUPS = {
    "ground_warm": setup_ground_warm,
    "ground_cold": setup_ground_cold,
    "bench": setup_bench,
    "optimize": setup_optimize,
}


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    child = spec["child"]
    tracer = Tracer() if spec["trace"] else None

    import sceneground as sg
    import sceneground.bench  # noqa: F401  (traced wrappers look for loaded modules)

    if tracer:
        tracer.install()
    op = SETUPS[spec["workload"]](sg, spec, child)
    if tracer:
        tracer.remove()
        tracer.measure_peaks()

    print("READY", flush=True)
    # the parent is blocked on the pipe now, so the reading sees an idle neighbour
    readings = [(time.perf_counter(), probe.reading())]
    setup_reading = readings[0][1]
    clock = Clock(tracer)
    ops, samples, problems = [], [], []
    stride = spec["sample_stride"]
    deadline = time.perf_counter() + spec["seconds"]
    k = 0
    while time.perf_counter() < deadline:
        is_traced = tracer is not None and k % 2 == 1
        try:
            n_items, problem, sample, extra = op(k, clock(k, is_traced))
        except Exception as exc:  # noqa: BLE001 - every failed op is counted
            n_items, problem, sample, extra = 0, f"op {k}: {type(exc).__name__}: {exc}", None, {}
        end = time.perf_counter()
        record = {"op": k, "traced": is_traced, "wall_ms": clock.elapsed * 1e3,
                  "start": end - clock.elapsed, "end": end, "items": n_items, **extra}
        if end - readings[-1][0] >= PROBE_EVERY_S:
            readings.append((time.perf_counter(), probe.reading()))
        if problem is None:
            ops.append(record)
            if sample is not None and (k + child) % stride == 0:
                samples.append(sample)
        else:
            problems.append(problem)
        if tracer:
            tracer.ops.append(record)
        k += 1

    if tracer:
        tracer.dump(Path(spec["trace_file"]))
    print(json.dumps({
        "attempted": k,
        "ops": ops,
        "samples": samples,
        "problems": problems,
        "readings": readings,
        "setup_reading": setup_reading,
        "rss_mb": peak_rss_mb(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
