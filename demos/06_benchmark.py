"""The bundled synthetic benchmark: 40 queries over 5 rooms, fully offline.

Every query has a geometrically unambiguous answer and several
same-category distractors, so the random baseline stays far below the
pipeline. The bench harness also reports condition-level precision/recall
(scored from the grounding pass's per-clause terms) and can emit CSV
matrices for feature heatmaps and per-step grounding scores.
"""

import json
import tempfile
from pathlib import Path

from sceneground import EncoderRegistry, generate_mini_benchmark
from sceneground.bench import run_bench

with tempfile.TemporaryDirectory() as td:
    manifest = generate_mini_benchmark(td, seed=7)
    print(f"generated {manifest['n_queries']} queries over scenes: {manifest['scenes']}")

    # plot data is written from the run's own feature caches
    plots = Path(td) / "plots"
    report = run_bench(td, EncoderRegistry(), workers=4, with_baseline=True, plots_dir=plots)
    print("\naggregates:")
    for key, value in report.aggregates.items():
        print(f"  {key:20s} {value:.4f}" if isinstance(value, float) else f"  {key:20s} {value}")

    misses = [r for r in report.records if not r.correct]
    print(f"\nmisses: {len(misses)}")

    plot_manifest = json.loads((plots / "manifest.json").read_text())
    print(f"plot data: {len(plot_manifest['heatmaps'])} heatmap CSVs, "
          f"{len(plot_manifest['steps'])} per-step score CSVs")
