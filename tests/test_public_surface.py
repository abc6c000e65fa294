"""Every function a module exports, and every public method of a class it
exports, has a user outside the tests.

A function in a module's ``__all__`` is public surface. Another module of
the package (the CLI among them), a demo or perfbench must name it;
otherwise :data:`ALLOWED` lists it with the reason it stays public. So a
helper that only the tests use does not creep back into ``__all__``: a test
reference belongs in ``tests/oracles.py``. A method or property of an
exported class must be named as an attribute (``.name``) by one of those
sources, its own module included, or be listed in :data:`ALLOWED_METHODS`.
"""

import importlib
import inspect
import pkgutil
import re
from functools import cached_property
from pathlib import Path

import sceneground

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(sceneground.__file__).resolve().parent

# "module.name" -> why it stays public without a user outside the tests
ALLOWED = {
    "dsl.eval_encoder_at": "the planned index-addressed executor grounds large scenes "
                           "through it, without the dense N^rank tensor",
    "dsl.load_definition": "reads the one-definition file format the README documents",
    "dsl.save_definition": "writes that format; test_atomic pins its atomic write",
    "executor.stable_softmax": "the executor's one softmax, which the acceptance tests check "
                               "category scores against",
    "optimizer.retrieve_example": "the paper's example-graph lookup, a step of the search",
    "optimizer.select_top_k": "the paper's top-k refinement pick, a step of the search",
    "optimizer.synthesize_error_message": "the paper's reflection message for a failed case",
}

# "module.Class.name" -> why it stays public without a user outside the tests
ALLOWED_METHODS = {
    "registry.EncoderRegistry.library": "read access to the append-only record of accepted "
                                        "encoders, which the registry file stores",
}


def _user_sources() -> dict[str, str]:
    """Source text of every non-test file that may use a module's exports,
    by module name (package modules) or path (demos and perfbench)."""
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")
               if path.stem != "__init__"}
    for pattern in ("demos/*.py", "perfbench/*.py"):
        for path in sorted(ROOT.glob(pattern)):
            if not path.name.startswith("test_"):
                sources[str(path.relative_to(ROOT))] = path.read_text(encoding="utf-8")
    return sources


def _exported_functions():
    for info in pkgutil.iter_modules(sceneground.__path__):
        module = importlib.import_module(f"sceneground.{info.name}")
        for name in getattr(module, "__all__", ()):
            if inspect.isfunction(getattr(module, name)):
                yield info.name, name


def test_every_exported_function_has_a_user_outside_the_tests():
    sources = _user_sources()
    unused = []
    for module, name in _exported_functions():
        word = re.compile(rf"\b{re.escape(name)}\b")
        if not any(word.search(text) for where, text in sources.items() if where != module):
            unused.append(f"{module}.{name}")
    # an entry whose function gained a user, or left __all__, is stale
    assert sorted(unused) == sorted(ALLOWED)


def _exported_methods():
    for info in pkgutil.iter_modules(sceneground.__path__):
        module = importlib.import_module(f"sceneground.{info.name}")
        for name in getattr(module, "__all__", ()):
            cls = getattr(module, name)
            if inspect.isclass(cls) and cls.__module__ == module.__name__:
                for attr, value in vars(cls).items():
                    if not attr.startswith("_") and (inspect.isfunction(value) or isinstance(
                            value, (property, cached_property, classmethod, staticmethod))):
                        yield info.name, name, attr


def test_every_public_method_of_an_exported_class_has_a_user_outside_the_tests():
    sources = _user_sources()
    unused = []
    for module, cls, name in _exported_methods():
        attribute = re.compile(rf"\.{re.escape(name)}\b")
        if not any(attribute.search(text) for text in sources.values()):
            unused.append(f"{module}.{cls}.{name}")
    # an entry whose method gained a user, or left its class, is stale
    assert sorted(unused) == sorted(ALLOWED_METHODS)
