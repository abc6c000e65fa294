"""Span recorder for the traced run.

The benchmark wraps the library's public calls from outside the package:
each wrapped call records a span (name, start, end, parent, op id) in memory,
and :meth:`Tracer.dump` writes them out when the worker ends.
:func:`summarize` derives per-call times, per-layer self times and call
counts, tracing overhead and span coverage from the dumped spans.

A function is wrapped wherever a ``sceneground`` module binds it, so calls
made inside the library (``execute`` calling ``Scene.fingerprint``,
``run_bench`` calling ``condition_level_eval``) are traced too.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

LAYERS = ("scene", "expression", "registry", "dsl", "executor", "optimizer", "mutation", "bench")

# (module, attribute, span name); "Class.method" wraps a method on its class
TARGETS = (
    ("sceneground.scene", "Scene.fingerprint", "scene.fingerprint"),
    ("sceneground.scene", "load_scene", "scene.load"),
    ("sceneground.scene", "precompute_geometry", "scene.geometry"),
    ("sceneground.expression", "parse_expression", "expression.parse"),
    ("sceneground.expression", "expression_from_dict", "expression.parse"),
    ("sceneground.registry", "EncoderRegistry.__init__", "registry.init"),
    ("sceneground.dsl", "eval_encoder", "dsl.eval"),
    ("sceneground.dsl", "validate_definition", "dsl.validate"),
    ("sceneground.executor", "FeatureCache.__init__", "executor.cache_init"),
    ("sceneground.executor", "execute", "executor.execute"),
    ("sceneground.executor", "grounding_result", "executor.result"),
    ("sceneground.optimizer", "MutationSource.draw", "optimizer.draw"),
    ("sceneground.optimizer", "run_test_suite", "optimizer.suite"),
    ("sceneground.optimizer", "TestSuite.__post_init__", "optimizer.suite_init"),
    ("sceneground.mutation", "mutate_definition", "mutation.mutate"),
    ("sceneground.bench", "load_dataset", "bench.load_dataset"),
    ("sceneground.executor", "condition_level_eval", "bench.condition_eval"),
    ("sceneground.bench", "run_bench", "bench.run"),
)
# spans split by the relation arity of their first argument (a definition)
BY_ARITY = {"dsl.eval", "optimizer.suite"}

SETUP = -1


def _arity(defn) -> int:
    from sceneground.expression import relation_arity

    return relation_arity(defn.relation)


class Tracer:
    """In-memory span list; single-threaded, so the open spans form a stack."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent, op, extra]
        self.ops: list[dict] = []
        self._stack: list[int] = []
        self._op = SETUP
        self._bindings: list[tuple[object, str, object, object]] | None = None
        self._peak_jobs: list[tuple[int, object, tuple, dict]] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._op, None])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id: int) -> int:
        self._op = op_id
        return self.begin("op")

    def end_op(self, index: int) -> None:
        self.end(index)
        self._op = SETUP

    def _wrap(self, fn, name: str):
        tracer = self

        def traced(*args, **kwargs):
            span_name = f"{name}.arity{_arity(args[0])}" if name in BY_ARITY else name
            if tracer._stack and tracer.spans[tracer._stack[-1]][0] == span_name:
                # parse_expression calls expression_from_dict: one span, not two
                return fn(*args, **kwargs)
            index = tracer.begin(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(index)
            if span_name == "dsl.eval.arity3":
                tracer._peak_jobs.append((index, fn, args, kwargs))
            elif name == "optimizer.suite":
                tracer.spans[index][5] = {"valid": not result.note.startswith("validation failed")}
            return result

        return traced

    def install(self) -> None:
        """Wrap every target wherever a loaded sceneground module binds it."""
        if self._bindings is None:
            self._bindings = []
            modules = [m for n, m in sorted(sys.modules.items())
                       if n == "sceneground" or n.startswith("sceneground.")]
            for module_name, attr, span in TARGETS:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._bindings.append((cls, meth, original, self._wrap(original, span)))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(original, span)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._bindings.append((module, key, original, wrapped))
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def remove(self) -> None:
        for owner, key, original, _ in self._bindings or ():
            setattr(owner, key, original)

    def measure_peaks(self) -> None:
        """Re-run this op's arity-3 evaluations under tracemalloc, outside any span.

        tracemalloc slows every allocation it sees, so the timed call runs
        without it and an identical untimed call gives the peak.
        """
        for index, fn, args, kwargs in self._peak_jobs:
            tracemalloc.start()
            try:
                fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            self.spans[index][5] = {"peak_mb": peak / 2**20}
        self._peak_jobs.clear()

    def dump(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op, extra in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "extra": extra}) + "\n")
            for op in self.ops:
                fh.write(json.dumps({"op_meta": op}) + "\n")


def metric_name(span: str) -> str:
    """``dsl.eval.arity3`` -> ``dsl.eval_ms.arity3``."""
    parts = span.split(".")
    return ".".join([parts[0], parts[1] + "_ms", *parts[2:]])


def _load(path: Path) -> tuple[list[dict], dict[int, dict]]:
    spans, ops = [], {}
    for line in path.read_text(encoding="utf-8").splitlines():
        row = json.loads(line)
        if "op_meta" in row:
            ops[row["op_meta"]["op"]] = row["op_meta"]
        else:
            spans.append(row)
    return spans, ops


def summarize(paths: list[Path]) -> dict[str, float]:
    """Per-layer figures from the span files of one run's workers.

    Per-call times are means over every span of that name, set-up included
    (``registry.init`` and ``optimizer.suite_init`` only run in set-up).
    Self times and call counts are per traced op. Overhead compares the
    median latency of traced ops with that of the untraced ops they
    alternate with; coverage is the median share of a traced op's wall time
    that its top-level spans cover.
    """
    durations: dict[str, list[float]] = defaultdict(list)
    peaks: dict[str, float] = defaultdict(float)
    self_ms: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    valid: list[bool] = []
    coverage: list[float] = []
    fingerprint_in_execute = execute_total = 0.0
    condition_total = run_total = 0.0
    traced_lat: list[float] = []
    untraced_lat: list[float] = []
    unique: list[float] = []
    for path in paths:
        spans, ops = _load(path)
        for meta in ops.values():
            (traced_lat if meta["traced"] else untraced_lat).append(meta["wall_ms"])
            if "unique_ratio" in meta:
                unique.append(meta["unique_ratio"])
        durs = [span["end"] - span["start"] for span in spans]
        child_time = [0.0] * len(spans)
        for span, dur in zip(spans, durs):
            if span["parent"] is not None:
                child_time[span["parent"]] += dur
        for k, span in enumerate(spans):
            dur = durs[k]
            name = span["name"]
            if name == "op":
                if dur > 0:
                    coverage.append(child_time[k] / dur)
                continue
            parent = spans[span["parent"]]["name"] if span["parent"] is not None else None
            key = metric_name(name)
            durations[key].append(dur * 1e3)
            if span["extra"] and "peak_mb" in span["extra"]:
                peak_key = key.replace("eval_ms", "eval_peak_mb")
                peaks[peak_key] = max(peaks[peak_key], span["extra"]["peak_mb"])
            if span["extra"] and "valid" in span["extra"]:
                valid.append(span["extra"]["valid"])
            if span["op"] == SETUP:
                continue
            layer = name.split(".")[0]
            self_ms[layer] += (dur - child_time[k]) * 1e3
            calls[layer] += 1
            if name == "scene.fingerprint" and parent == "executor.execute":
                fingerprint_in_execute += dur
            elif name == "executor.execute":
                execute_total += dur
            elif name == "bench.condition_eval":
                condition_total += dur
            elif name == "bench.run":
                run_total += dur

    n_traced = max(1, len(traced_lat))
    out: dict[str, float] = {key: statistics.fmean(vals) for key, vals in durations.items()}
    out.update(peaks)
    for layer in LAYERS:
        out[f"{layer}.self_ms"] = self_ms[layer] / n_traced
        out[f"{layer}.calls_per_op"] = calls[layer] / n_traced
    if valid:
        out["optimizer.valid_ratio"] = sum(valid) / len(valid)
    if unique:
        out["optimizer.unique_ratio"] = statistics.fmean(unique)
    if execute_total:
        out["executor.fingerprint_share"] = fingerprint_in_execute / execute_total
    if run_total:
        out["bench.condition_eval_share"] = condition_total / run_total
    if traced_lat and untraced_lat:
        base = statistics.median(untraced_lat)
        out["trace.overhead_ms"] = statistics.median(traced_lat) - base
        out["trace.overhead_pct"] = 100.0 * out["trace.overhead_ms"] / base
    if coverage:
        out["trace.coverage"] = statistics.median(coverage)
    return out
