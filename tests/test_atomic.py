"""Every file the package rewrites is replaced atomically: when the final
rename fails, the previous file stays whole and no temporary file is left."""

import os
from pathlib import Path

import numpy as np
import pytest

from sceneground.builtins import encoder_to_dsl
from sceneground.cli import main
from sceneground.dsl import save_definition
from sceneground.registry import EncoderRegistry, save_registry
from sceneground.scene import save_scene

from helpers import random_scene
from test_cli import CHAIR_EXPR, make_near_suite_files


def _fail_replace_of(monkeypatch, target: Path) -> None:
    real = os.replace

    def replace(src, dst):
        if Path(dst) == target:
            raise OSError("replace failed")
        return real(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _write_parse_out(target: Path) -> None:
    expr = target.parent.parent / "expr.json"
    expr.write_text(CHAIR_EXPR, encoding="utf-8")
    assert main(["parse", "--offline-expr", str(expr), "--out", str(target)]) == 1


def _write_optimize_log(target: Path) -> None:
    suite, scenes = make_near_suite_files(target.parent.parent, np.random.default_rng(0))
    assert main(["optimize", "--relation", "near", "--suite", str(suite), "--scenes", str(scenes),
                 "--n-iter", "1", "--registry", str(target.parent.parent / "registry.json"),
                 "--log", str(target)]) == 1


def _save_definition(target: Path) -> None:
    with pytest.raises(OSError, match="replace failed"):
        save_definition(encoder_to_dsl("near"), target)


def _save_registry(target: Path) -> None:
    with pytest.raises(OSError, match="replace failed"):
        save_registry(EncoderRegistry(), target)


def _save_scene(target: Path) -> None:
    with pytest.raises(OSError, match="replace failed"):
        save_scene(random_scene(np.random.default_rng(0), 3, "atomic"), target)


@pytest.mark.parametrize("write", [_write_parse_out, _write_optimize_log, _save_definition,
                                   _save_registry, _save_scene],
                         ids=["parse_out", "optimize_log", "save_definition", "save_registry",
                              "save_scene"])
def test_failed_replace_keeps_the_previous_file(tmp_path, monkeypatch, write):
    target = tmp_path / "out" / "target.json"
    target.parent.mkdir()
    target.write_text("previous contents\n", encoding="utf-8")
    _fail_replace_of(monkeypatch, target)
    write(target)
    assert target.read_text(encoding="utf-8") == "previous contents\n"
    assert os.listdir(target.parent) == ["target.json"]
