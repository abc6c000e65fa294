"""Every input builder either returns or raises an ``atomic.InputError``.

The CLI exits 2 for an ``InputError`` and 1 for anything else, so a builder
that lets another exception escape turns a bad input file into a crash.
Each builder (scene, expression, definition, registry, suite and dataset
line) is fed arbitrary bounded JSON objects, with integers past 64 bits,
nan and infinite floats, lone surrogates and the wire formats' own key
names and values, and a valid input of its own with one place replaced by
such a value, so that most draws get past the first field check. A deterministic
sweep puts each of a fixed set of hostile values at every place of each
valid input.

The LLM reply readers get the same treatment over arbitrary text, with
those JSON values embedded in prose: each returns or raises an
``LlmError`` or a ``ValueError``, which the client retries. So does each
option of each subcommand, as a one-key ``--config`` file: the command
either gets the value as its flag's type or never runs, and the CLI exits
2 with one ``error:`` line.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sceneground.atomic import InputError
from sceneground.bench import _parse_entry
from sceneground.cli import build_parser, main
from sceneground.dsl import agg, checked_definition, const, get, op
from sceneground.expression import expression_from_dict
from sceneground.llm import (LlmError, _definition_from_reply, _expression_from_reply,
                              _json_from_reply)
from sceneground.optimizer import _suite_from_dict
from sceneground.registry import _registry_from_dict
from sceneground.scene import scene_from_dict

# the scene file the suite builder can resolve
SCENE_ID = "room"

KEYS = (
    "scene_id", "objects", "id", "label", "bbox", "similarities", "categories", "values",
    "category", "relations", "relation_name", "relation", "anchors", "negative",
    "body", "metadata", "op", "args", "const", "get", "obj", "axis", "agg",
    "library", "active", "cases", "target", "distractor", "anchor", "anchor2",
    "ground_truth", "utterance",
)
WORDS = (
    SCENE_ID, "chair", "near", "between", "large", "left of", "add", "neg", "dot2",
    "center", "volume", "mean_diagonal", "hull_min", "i", "j", "k", "x", "z",
    "", " ", ".", "..", "a/b", "\ud800", "\x00",
)

SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(WORDS),
    st.text(max_size=4),
)


def _objects(children):
    return st.dictionaries(st.one_of(st.sampled_from(KEYS), st.text(max_size=3)), children,
                           max_size=5)


JSON = st.recursive(SCALARS, lambda children: st.one_of(
    st.lists(children, max_size=6), _objects(children)), max_leaves=24)
TOP = _objects(JSON)


SCENE = {
    "scene_id": SCENE_ID,
    "objects": [{"id": k, "label": label, "bbox": [k, 0, 0.5, 1, 1, 1]}
                for k, label in enumerate(("chair", "table", "lamp", "chair"))],
}
DEFINITION = {"relation": "near", "metadata": "", "body": op(
    "add", get("center", "i", "x"), op("dot2", const(2.0), agg("hull_min", "x"),
                                       get("volume", "j"), {"const": 3}))}
# one valid input per builder, which the fuzz also perturbs at one place
VALID = {
    "scene": {**SCENE, "similarities": {"categories": ["chair", "table"],
                                        "values": [[1.0, 0.5], [0.5, 1.0], [0, 0], [1, 0.5]]}},
    "expression": {"category": "chair", "relations": [
        {"relation_name": "between", "negative": False, "anchors": [
            {"category": "table"},
            {"category": "lamp", "relations": [{"relation": "near", "objects": [
                {"category": "chair"}]}]}]}]},
    "definition": DEFINITION,
    "registry": {"library": [DEFINITION], "active": {"near": DEFINITION}},
    "suite": {"relation": "near", "cases": [
        {"scene_id": SCENE_ID, "target": 0, "distractor": 1, "anchor": 2}]},
}
VALID["dataset_line"] = {"scene_id": SCENE_ID, "utterance": "the chair near the table",
                         "expression": VALID["expression"], "ground_truth": 3}
SCENES = {SCENE_ID: scene_from_dict(SCENE)}


def _places(value, out):
    """Every (container, key) of ``value``'s nested lists and objects."""
    items = enumerate(value) if isinstance(value, list) else value.items()
    for key, child in items:
        out.append((value, key))
        if isinstance(child, (list, dict)):
            _places(child, out)
    return out


def _replaced(valid, k, value):
    """``valid`` with the value at its place ``k`` (in :func:`_places`
    order) replaced by ``value``."""
    copy = json.loads(json.dumps(valid))
    container, key = _places(copy, [])[k]
    container[key] = value
    return copy


@st.composite
def perturbed(draw, valid):
    """``valid`` with the value at one place replaced by an arbitrary one."""
    k = draw(st.integers(0, len(_places(valid, [])) - 1))
    return _replaced(valid, k, draw(JSON))


@pytest.fixture(scope="module")
def scenes_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz_scenes")
    (root / f"{SCENE_ID}.json").write_text(json.dumps(SCENE))
    return root


BUILDERS = {
    "scene": lambda raw, _: scene_from_dict(raw),
    "expression": lambda raw, _: expression_from_dict(raw),
    "definition": lambda raw, _: checked_definition(raw),
    "registry": lambda raw, _: _registry_from_dict(raw, "registry.json"),
    "suite": lambda raw, scenes_dir: _suite_from_dict(raw, scenes_dir),
    "dataset_line": lambda raw, _: _parse_entry(raw, SCENES),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_builder_returns_or_raises_an_input_error(scenes_dir, builder):
    BUILDERS[builder](VALID[builder], scenes_dir)  # the unperturbed input builds

    @settings(max_examples=50, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    # two draws in three perturb the valid input, which reaches the inner checks
    @given(st.one_of(TOP, perturbed(VALID[builder]), perturbed(VALID[builder])))
    def check(raw):
        try:
            BUILDERS[builder](raw, scenes_dir)
        except InputError:
            pass

    check()


# one value of each JSON type, and the edges the builders must word
HOSTILE = (None, True, 0, -1, 2**64, -(2**70), 0.5, float("nan"), float("inf"),
           float("-inf"), "", " ", "\ud800", "room/1", [], [0], [[]], {}, {"op": "add"})


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_every_place_of_a_valid_input_takes_every_hostile_value(scenes_dir, builder):
    """The deterministic floor under the fuzz: each place of the valid
    input, in turn, holds each value of ``HOSTILE``."""
    valid = VALID[builder]
    for k in range(len(_places(valid, []))):
        for value in HOSTILE:
            try:
                BUILDERS[builder](_replaced(valid, k, value), scenes_dir)
            except InputError:
                pass


READERS = {
    "json": lambda text: _json_from_reply(text, ""),
    "expression": _expression_from_reply,
    "definition": lambda text: _definition_from_reply(text, "near"),
}
PROSE = st.text(max_size=12)
REPLY = st.one_of(st.text(max_size=40),
                  st.tuples(PROSE, JSON.map(json.dumps), PROSE).map("".join),
                  st.tuples(PROSE, TOP.map(json.dumps), PROSE).map("".join))
DEPTH = 100_000  # deeper than the recursion limit
DEEP_REPLIES = {
    "arrays": 'Here it is: {"category": ' + "[" * DEPTH + "]" * DEPTH + "} done",
    "objects": '{"a": ' * DEPTH + "1" + "}" * DEPTH,
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_every_reply_reader_returns_or_raises_a_retried_error(reader):
    """A reply the client cannot use raises an error it retries, so an odd
    reply spends one attempt of the budget instead of ending the call."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(REPLY)
    def check(text):
        try:
            READERS[reader](text)
        except (LlmError, ValueError):
            pass

    check()


@pytest.mark.parametrize("nesting", sorted(DEEP_REPLIES))
@pytest.mark.parametrize("reader", sorted(READERS))
def test_a_reply_nested_past_the_recursion_limit_is_a_retried_error(reader, nesting):
    with pytest.raises(LlmError, match="JSON nested too deeply"):
        READERS[reader](DEEP_REPLIES[nesting])


def _options():
    """(command, option action) for each option of each subcommand but
    ``--help`` and ``--config``."""
    commands = next(action.choices for action in build_parser()._actions
                    if action.dest == "command")
    return [(name, action) for name, command in commands.items() for action in command._actions
            if action.option_strings and action.dest not in ("help", "config")]



OPTIONS = _options()


def test_every_config_value_reaches_the_command_as_its_flags_type_or_exits_2(
        tmp_path, capsys, monkeypatch):
    """One property over every option of every subcommand: a one-key config
    holding the drawn value either exits 2 with one ``error:`` line that
    names the option, and the command never runs, or the command gets the
    value as its flag's type."""
    ran = []
    for command in {command for command, _ in OPTIONS}:
        monkeypatch.setattr(f"sceneground.cli.cmd_{command}", lambda args: ran.append(args) or 0)
    config = tmp_path / "config.json"
    choices = [choice for _, action in OPTIONS for choice in action.choices or ()]

    # every draw is tried at all 26 options, so a few draws cover each
    @settings(max_examples=25, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
    @given(st.one_of(JSON, st.sampled_from(choices)))
    def check(value):
        for command, action in OPTIONS:
            ran.clear()
            config.write_text(json.dumps({action.dest: value}), encoding="utf-8")
            code = main([command, "--config", str(config)])
            err = capsys.readouterr().err
            where = f"{command} {action.option_strings[0]}"
            if not ran:
                assert code == 2 and err.startswith("error: ") and err.count("\n") == 1, where
                assert action.option_strings[0][2:] in err and "Traceback" not in err, where
                continue
            got = getattr(ran[0], action.dest)
            if action.choices:
                assert got in action.choices, where
            elif action.type in (int, float):
                assert type(got) is action.type and not isinstance(value, bool), where
                assert got == action.type(value) or math.isnan(got), where
            else:
                assert type(got) is (bool if action.nargs == 0 else str), where
            assert isinstance(got, float) or got == value, where

    check()
