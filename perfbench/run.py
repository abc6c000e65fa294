"""Seeded benchmark for sceneground: four closed-loop, single-client workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload bench --seed 0 --seconds 55 --trace 0

``--workload`` is one of ground_warm, ground_cold, bench, optimize or all.
BENCHMARK.json lists only bench and optimize: together they reach every
layer, and two workloads leave room for runs long enough to average over
the host's changes of speed. ground_warm and ground_cold run by name or
with ``all``.
The run generates its inputs from ``--seed``, starts ``WORKERS`` fresh
interpreters one after another (BLAS/OpenMP threads pinned to 1), and gives
each a ``--seconds / WORKERS`` slice of the timed loop. Set-up time is taken
per worker, from process start to the first timed op, and reported as the
median. Outputs are checked outside the timed
region; a sample of grounding ops is recomputed with the benchmark's own
reference executor.

The host shares its cores with other tenants and changes speed by up to
about 2x for minutes at a time, so the time metrics are scaled by the speed
probe (probe.py): each op's wall time is multiplied by ``REFERENCE_S`` over
the probe readings taken around it, and each set-up's by ``REFERENCE_S``
over the readings before and after it. The table prints the unscaled
wall-clock figures beside them; the per-layer times of a traced run are
wall-clock.

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` the per-layer metrics from a traced run (spans are written to
``.perfbench_out/traces/``). A table per workload comes first; the last line
of standard output is one JSON object. The exit code is 0 when every check
passed, 1 when a check failed and 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
# one BLAS/OpenMP thread here and in the workers, which inherit it; the
# probe readings this process takes use BLAS too
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import gen  # noqa: E402
import probe  # noqa: E402
from spans import summarize  # noqa: E402

WORKLOADS = ("ground_warm", "ground_cold", "bench", "optimize")
# set-ups per run; setup_s is their median
WORKERS = 6
# one in this many grounding ops is recomputed by the reference executor
SAMPLE_STRIDE = {"ground_warm": 25, "ground_cold": 10}
OPT_RELATIONS = ("at_the_corner", "near", "between")
# slack on top of a worker's slice before it is killed: set-up plus one slow op
WORKER_GRACE_S = 60.0
# probe readings within this many seconds of an op count for its speed
WINDOW_S = 1.0


class BenchmarkError(RuntimeError):
    """The benchmark could not run to the end (not a failed output check)."""


def prepare(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    """Write the workload's inputs; returns (worker spec fields, parent-side inputs)."""
    if workload == "ground_warm":
        spec: dict = {"scenes": [], "pools": []}
        pools = []
        for k, (scene, pool) in enumerate(gen.warm_inputs(seed)):
            scene_path, pool_path = work / f"warm_{k}.json", work / f"warm_{k}.jsonl"
            gen.write_json(scene_path, scene)
            pool_path.write_text("".join(json.dumps(e) + "\n" for e in pool), encoding="utf-8")
            spec["scenes"].append(str(scene_path))
            spec["pools"].append(str(pool_path))
            pools.append(pool)
        return spec, {"pools": pools}
    if workload == "bench":
        from sceneground import generate_mini_benchmark

        spec = {"datasets": [], "answers": []}
        for k, s in enumerate(gen.bench_seeds(seed)):
            path = work / f"mini_{k}"
            generate_mini_benchmark(path, seed=s)
            lines = (path / "expressions.jsonl").read_text(encoding="utf-8").splitlines()
            spec["datasets"].append(str(path))
            spec["answers"].append([json.loads(line)["ground_truth"] for line in lines if line])
        return spec, {}
    if workload == "optimize":
        spec = {"suites": []}
        for k, relation in enumerate(OPT_RELATIONS):
            suite, scenes = gen.margin_suite(gen.stream(seed, gen.SUITE, k), relation)
            scenes_dir = work / f"suite_{relation}"
            scenes_dir.mkdir()
            for scene in scenes:
                gen.write_json(scenes_dir / f"{scene['scene_id']}.json", scene)
            gen.write_json(work / f"suite_{relation}.json", suite)
            spec["suites"].append([str(work / f"suite_{relation}.json"), str(scenes_dir)])
        return spec, {}
    return {}, {}


def run_worker(spec: dict, spec_path: Path) -> tuple[float, float, dict]:
    """Start one worker, wait for it.

    Returns (set-up seconds, probe reading just before the start, its result).
    """
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    before = probe.reading()
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    watchdog = threading.Timer(spec["seconds"] + WORKER_GRACE_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - started
        out = proc.stdout.read()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        code = proc.wait()
    if ready.strip() != "READY" or code != 0 or not out.strip():
        raise BenchmarkError(f"worker {spec['child']} of {spec['workload']} exited with "
                             f"code {code} before reporting")
    return setup_s, before, json.loads(out.strip().splitlines()[-1])


def scaled_ms(ops: list[dict], readings: list[list[float]]) -> list[float]:
    """Each op's wall time on a core whose probe reading is ``REFERENCE_S``.

    The core's speed during an op is the median of the worker's readings
    taken within ``WINDOW_S`` of it; a worker takes one at most
    ``PROBE_EVERY_S`` after every op ends, so there always is one.
    """
    times = [t for t, _ in readings]
    out = []
    for op in ops:
        lo = bisect.bisect_left(times, op["start"] - WINDOW_S)
        hi = bisect.bisect_right(times, op["end"] + WINDOW_S)
        speed = statistics.median(r for _, r in readings[lo:hi])
        out.append(op["wall_ms"] * probe.REFERENCE_S / speed)
    return out


def reference_problems(workload: str, samples: list[dict], inputs: dict,
                       spec: dict) -> list[str]:
    """Recompute sampled grounding ops with the reference executor."""
    if workload not in ("ground_warm", "ground_cold") or not samples:
        return []
    import checks
    from sceneground import EncoderRegistry, load_scene

    definitions = EncoderRegistry().snapshot()
    refs: dict = {}
    problems = []
    for sample in samples:
        if workload == "ground_warm":
            i = sample["scene"]
            if i not in refs:
                refs[i] = checks.Reference(load_scene(spec["scenes"][i]), definitions)
            expected = refs[i].scores(inputs["pools"][i][sample["expr"]])
        else:
            ref = checks.Reference(load_scene(sample["path"]), definitions)
            expected = ref.scores(sample["expr"])
        problem = checks.check_reference(sample["scores"], expected)
        if problem:
            problems.append(problem)
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = OUT / "work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    trace_dir = OUT / "traces"
    if trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    try:
        spec, inputs = prepare(workload, seed, work)
        spec.update(workload=workload, seed=seed, trace=trace, work=str(work),
                    seconds=seconds / WORKERS, sample_stride=SAMPLE_STRIDE.get(workload, 1))
        setups, wall_setups, results, trace_files = [], [], [], []
        for child in range(WORKERS):
            trace_file = trace_dir / f"{workload}-seed{seed}-w{child}.jsonl"
            child_spec = dict(spec, child=child, trace_file=str(trace_file))
            setup_s, before, result = run_worker(child_spec, work / f"spec_{child}.json")
            speed = (before + result["setup_reading"]) / 2
            setups.append(setup_s * probe.REFERENCE_S / speed)
            wall_setups.append(setup_s)
            results.append(result)
            trace_files.append(trace_file)
        samples = [s for r in results for s in r["samples"]]
        problems = [p for r in results for p in r["problems"]]
        ref_problems = reference_problems(workload, samples, inputs, spec)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = len(problems) + len(ref_problems)
    untraced, latencies = [], []
    for r in results:
        ops = [o for o in r["ops"] if not o["traced"]]
        untraced += ops
        latencies += scaled_ms(ops, r["readings"])
    if not untraced:
        raise BenchmarkError(f"{workload}: no op completed")
    wall = [o["wall_ms"] for o in untraced]
    items = sum(o["items"] for o in untraced)
    out = {
        "workload": workload, "seed": seed, "attempted": attempted, "failed": failed,
        "problems": (problems + ref_problems)[:5], "n_reference": len(samples),
        "n_setups": len(setups), "n_ops": len(untraced),
        "n_readings": sum(len(r["readings"]) for r in results),
    }
    out["e2e"] = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": float(np.percentile(latencies, 50)),
        "latency_p90_ms": float(np.percentile(latencies, 90)),
        "queries_per_s": items / (sum(latencies) / 1e3),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in results),
    }
    # workload-specific figures, unscaled times and the probe, printed in the table only
    table = {"error_rate": failed / max(1, attempted)}
    if len(latencies) >= 1000:
        table["latency_p99_ms"] = float(np.percentile(latencies, 99))
    if workload == "bench":
        table["accuracy"] = statistics.fmean(o["accuracy"] for o in untraced)
    if workload == "optimize":
        table["best_pass_rate"] = statistics.fmean(o["pass_rate"] for o in untraced)
        table["candidates_per_s"] = out["e2e"]["queries_per_s"]
    table["wall_setup_s"] = statistics.median(wall_setups)
    table["wall_latency_p50_ms"] = float(np.percentile(wall, 50))
    table["wall_latency_p90_ms"] = float(np.percentile(wall, 90))
    table["core_slowdown"] = statistics.median(
        reading for r in results for _, reading in r["readings"]) / probe.REFERENCE_S
    out["table"] = table
    if trace:
        out["layers"] = summarize(trace_files)
    return out


TABLE_UNITS = {"latency_p99_ms": "ms", "candidates_per_s": "1/s", "wall_setup_s": "s",
               "wall_latency_p50_ms": "ms", "wall_latency_p90_ms": "ms"}


def print_table(result: dict, bench: dict, trace: bool) -> None:
    print(f"[{result['workload']}] seed={result['seed']} ops={result['attempted']} "
          f"failed={result['failed']} reference-checked={result['n_reference']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    if trace:
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
        for name, value in sorted(result["layers"].items()):
            if name in units:
                print(f"  {name:<36} {value:14.6f} {units[name]}")
        return
    counts = {"setup_s": f"n={result['n_setups']} set-ups"}
    for m in bench["end_to_end"]:
        n = counts.get(m["name"], f"n={result['n_ops']} ops")
        print(f"  {m['name']:<36} {result['e2e'][m['name']]:14.6f} {m['unit']:<6} ({n})")
    for name, value in result["table"].items():
        n = {"wall_setup_s": f"n={result['n_setups']} set-ups",
             "core_slowdown": f"n={result['n_readings']} readings"}.get(name, f"n={result['n_ops']} ops")
        print(f"  {name:<36} {value:14.6f} {TABLE_UNITS.get(name, ''):<6} (table only, {n})")


def metrics_of(result: dict, bench: dict, trace: bool) -> dict:
    if trace:
        return {m["name"]: {"value": float(result["layers"].get(m["name"], 0.0)),
                            "unit": m["unit"]} for m in bench["per_layer"]}
    return {m["name"]: {"value": float(result["e2e"][m["name"]]), "unit": m["unit"]}
            for m in bench["end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sceneground" / "__init__.py").is_file() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print("perfbench: run from a checkout that holds src/sceneground and BENCHMARK.json",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    trace = bool(args.trace)

    results = []
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, seconds, trace)
            print_table(result, bench, trace)
            results.append(result)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], bench, trace)
    else:
        metrics = {f"{r['workload']}.{name}": value for r in results
                   for name, value in metrics_of(r, bench, trace).items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
