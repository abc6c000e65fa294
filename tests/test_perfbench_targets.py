"""Every library function the traced benchmark run wraps still exists, and
the benchmark's own copy of the relation arities agrees with the library's.

``perfbench/spans.py`` names its targets as (module, attribute) pairs, and
only ``perfbench/run.py --trace 1`` would notice a rename in the library.
This test reads that list and resolves each pair in ``sceneground``.
``Tracer.install`` finds each target's module in ``sys.modules``, so the
modules the benchmark worker imports must load every one of them.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from sceneground.expression import ALL_RELATIONS, relation_arity

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"
SRC = SPANS.parent.parent / "src"


def _load(path: Path):
    """The perfbench module at ``path``, loaded by file location."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_targets() -> tuple:
    return _load(SPANS).TARGETS  # the standard library only


def test_the_benchmark_arity_copy_matches_the_relation_table():
    """``perfbench/gen.py`` keeps its own ``ARITY``, since the benchmark
    generates inputs without importing the library."""
    gen = _load(SPANS.parent / "gen.py")
    assert gen.ARITY == {r: relation_arity(r) for r in ALL_RELATIONS}


def test_every_traced_target_resolves_in_the_library():
    missing = []
    for module_name, attr, _ in _traced_targets():
        owner = importlib.import_module(module_name)
        if "." in attr:  # "Class.method" is wrapped on the class that defines it
            cls_name, meth = attr.split(".")
            owner = vars(getattr(owner, cls_name, object)).get(meth)
        else:
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_the_benchmark_imports_load_every_traced_module_and_no_unused_one():
    """``import sceneground, sceneground.bench`` (what a benchmark worker runs)
    loads every module ``TARGETS`` names, and neither the LLM client, the
    mini-benchmark generator, the CLI nor the stdlib modules that only a
    warning, ``--plots`` or ``--workers`` above 1 needs."""
    targets = sorted({module for module, _, _ in _traced_targets()})
    unused = ["sceneground.llm", "sceneground.minibench", "sceneground.cli", "logging", "csv",
              "concurrent.futures"]
    code = ("import json, sys, sceneground, sceneground.bench; "
            f"print(json.dumps([m for m in {targets + unused!r} if m in sys.modules]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert [m for m in targets if m not in loaded] == []
    assert [m for m in unused if m in loaded] == []
