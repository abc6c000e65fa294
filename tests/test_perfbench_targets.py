"""Every library function the traced benchmark run wraps still exists.

``perfbench/spans.py`` names its targets as (module, attribute) pairs, and
only ``perfbench/run.py --trace 1`` would notice a rename in the library.
This test reads that list and resolves each pair in ``sceneground``.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced_targets() -> tuple:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # the standard library only
    return spans.TARGETS


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
