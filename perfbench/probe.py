"""Speed probe: how fast the core this process runs on is right now.

The machine this benchmark runs on shares its cores with other tenants, and
their load changes the speed of every instruction stream by up to about 2x,
for stretches of seconds to minutes. The probe times a fixed kernel that
never calls the program (interpreter loops, JSON and hashing in C, small
NumPy work). Workers take a reading between ops, outside the timed region,
and the benchmark divides each op's wall time by the readings around it
(see ``run.scaled_ms``), so its time metrics read as milliseconds on a core
whose probe reading is ``REFERENCE_S``.

A reading first runs the kernel once untimed: the op before it may have
evicted the kernel's data from the caches, and a cold reading would follow
the program's memory footprint instead of the core's speed.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time

import numpy as np

# the median reading over calibration runs of bench and optimize on the
# baseline machine (2 shared Intel Xeon vCPUs), taken across its fast and
# slow spells, so that scaled times sit near the wall times seen there
REFERENCE_S = 2.65e-4
TIMED_RUNS = 3

_DOC = {"objects": [{"id": i, "label": "chair", "bbox": [0.1 * i, 0.2, 0.3, 0.4, 0.5, 0.6]}
                    for i in range(30)]}
_A = np.random.default_rng(0).random((60, 60))


def _kernel() -> None:
    tree = {"op": "add", "args": [{"const": float(k)} for k in range(40)]}
    total = 0.0
    for node in tree["args"]:
        total += node["const"] if "const" in node else 0.0
    hashlib.sha256(json.dumps(_DOC, sort_keys=True).encode("utf-8")).hexdigest()
    x = np.exp(-_A / (_A.T + 1e-6))
    y = (x @ _A).sum(axis=1)
    np.einsum("ij,j->i", x, y)


def reading() -> float:
    """Seconds one warm run of the kernel takes now (median of ``TIMED_RUNS``)."""
    _kernel()
    times = []
    for _ in range(TIMED_RUNS):
        start = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - start)
    return statistics.median(times)
