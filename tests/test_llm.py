import hashlib
import io
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sceneground.dsl as dsl
import sceneground.llm as llm_module
from sceneground.builtins import encoder_to_dsl
from sceneground.llm import (
    EndpointConfig,
    LlmClient,
    LlmError,
    UsageLedger,
    UsageRecord,
    assemble_prompt,
    parse_utterance_via_llm,
)
from sceneground.optimizer import LlmSource
from sceneground.stub_server import StubServer

from test_cli import DEEP_JSON

CHAIR_REPLY = (
    'Here is the parsed expression:\n'
    '{"category": "chair", "relations":'
    ' [{"relation_name": "near", "objects": [{"category": "table"}]}]}\n'
    'Hope that helps!'
)


def fast_config(url: str, attempts: int = 3) -> EndpointConfig:
    return EndpointConfig(endpoint=url, api_key="test-key", model="stub-model",
                          max_attempts=attempts, backoff=0.01, timeout=10.0)


def test_assemble_parsing_prompt_contains_utterance_once():
    bundle = assemble_prompt("parsing", utterance="the chair near the window")
    assert bundle.template_id == "parsing"
    assert bundle.user.count("the chair near the window") == 1
    assert "relation_name" in bundle.system


def test_assemble_generation_embeds_example_verbatim():
    example = encoder_to_dsl("near")
    bundle = assemble_prompt("init_generation", relation="far", example=example)
    assert json.dumps(example.to_dict(), indent=2) in bundle.user
    assert '"far"' in bundle.user
    no_example = assemble_prompt("init_generation", relation="far")
    assert "known-good encoder" not in no_example.user


def test_assemble_refinement_embeds_prior_and_errors_in_order():
    prior = encoder_to_dsl("near")
    messages = ("first failure", "second failure", "third failure")
    bundle = assemble_prompt("refinement", relation="near", prior=(prior, messages))
    init = assemble_prompt("init_generation", relation="near")
    assert bundle.user.startswith(init.user)
    assert json.dumps(prior.to_dict(), indent=2) in bundle.user
    positions = [bundle.user.index(m) for m in messages]
    assert positions == sorted(positions)


def test_assembly_is_deterministic():
    a = assemble_prompt("parsing", utterance="u")
    b = assemble_prompt("parsing", utterance="u")
    assert a == b


REFINEMENT_MESSAGES = ("case 0: target 3 scored below distractor 5",
                       "case 1: target 2 scored below distractor 4")
# template id -> sha256 of one assembled bundle; a template edit must re-pin it
PROMPT_DIGESTS = {
    "parsing": "8b62e8c6c2244f8d0a0524e7458b4c5b6ce843a76171d0e30f69ad31046eae52",
    "init_generation": "c3094b49b8780cb647bf8394db2499a700f218c72fc90fd93ae4a77ed2893965",
    "refinement": "54f313003183db4801bcda9de27ac49f4a846d5444f8d0b34c7e32382f5ac7d2",
}


def _pinned_bundle(template_id):
    if template_id == "parsing":
        return assemble_prompt("parsing", utterance="the chair near the window")
    if template_id == "init_generation":
        return assemble_prompt("init_generation", relation="right", example=encoder_to_dsl("left"))
    return assemble_prompt("refinement", relation="between",
                           prior=(encoder_to_dsl("between"), REFINEMENT_MESSAGES))


@pytest.mark.parametrize("template_id", sorted(PROMPT_DIGESTS))
def test_assembled_prompts_are_pinned(template_id):
    """The bytes the model sees for one fixed call of each template, so a
    change to a template, or to what fills it, shows up here."""
    bundle = _pinned_bundle(template_id)
    text = json.dumps([bundle.template_id, bundle.system, bundle.user])
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PROMPT_DIGESTS[template_id]


def _generation_grammar():
    """What ``prompts/generation.txt`` tells the model of the DSL: each
    accessor and each aggregate with the axes it takes (None for none), and
    each operator with its argument count, as (name, value) pairs."""
    text = llm_module._load_template("generation")
    nodes = {"get": [], "agg": []}
    for kind, names, axes in re.findall(r'\{"(get|agg)": ("[\w"|]+")(?:, "obj": "[\w"|]+")?'
                                        r'(?:, "axis": ("[\w"|]+"))?\}', text):
        axes = tuple(axes.strip('"').split('"|"')) if axes else None
        nodes[kind] += [(name, axes) for name in names.strip('"').split('"|"')]
    operators = text[text.index("Operators:") + len("Operators:"):text.index("Division")]
    ops = [(name.strip(), int(count))
           for names, count in re.findall(r"([\w,\s]+?)\s*\((\d) args?\b", operators)
           for name in names.split(",")]
    return nodes["get"], nodes["agg"], ops


def test_the_generation_prompt_names_exactly_the_dsl_tables():
    """The template is the model's only description of the DSL, so each
    name it lists must be in ``dsl``'s tables, with the same axes and
    argument count, and each name in the tables must be listed once."""
    accessors, aggregates, ops = _generation_grammar()
    for listed, table in [
        (accessors, {name: tuple(dsl._AXES) if needs_axis else None
                     for name, (needs_axis, _) in dsl._GET_FIELDS.items()}),
        (aggregates, {name: axes for name, (axes, _) in dsl._AGG_FIELDS.items()}),
        (ops, {name: count for name, (count, _) in dsl._OPS.items()}),
    ]:
        assert len(dict(listed)) == len(listed)  # no name listed twice
        assert dict(listed) == table


def test_unknown_template_rejected():
    with pytest.raises(LlmError, match="unknown template"):
        assemble_prompt("zen")


def test_extract_json_block():
    """The one reply reader takes the first balanced block, string-aware."""
    read = llm_module._json_from_reply
    assert read('prose {"a": 1} more', "") == {"a": 1}
    assert read('{"a": {"b": 2}} {"c": 3}', "") == {"a": {"b": 2}}
    assert read('{"s": "brace } in string"}', "") == {"s": "brace } in string"}
    for text in ("no json here", "{unclosed"):
        with pytest.raises(LlmError, match="contains no JSON object"):
            read(text, "")


def test_a_block_that_is_not_json_is_skipped():
    reply = 'The feature compares {i, j} boxes: {"relation": "near", "body": {"const": 1.0}}'
    defn = llm_module._definition_from_reply(reply, "near")
    assert defn.relation == "near" and defn.body == {"const": 1.0}
    with StubServer(["Reading {chair, table} as: " + CHAIR_REPLY]) as stub:
        expr = parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
        assert stub.request_count == 1
    assert expr.relations[0].anchors[0].category == "table"
    with pytest.raises(LlmError, match="reply JSON is malformed"):
        llm_module._definition_from_reply("only {i, j} and {k}", "near")
    with pytest.raises(LlmError, match="contains no JSON object"):
        llm_module._definition_from_reply("no braces at all", "near")


def test_fragments_of_a_malformed_block_are_not_taken_for_the_reply():
    # each block below lacks a comma, so only its inner fragments parse
    body_error = ('{"relation": "near", "body": {"op": "mul" "args":'
                  ' [{"const": 1.0}, {"const": 2.0}]}}')
    with pytest.raises(LlmError, match="reply JSON is malformed"):
        llm_module._definition_from_reply(body_error, "near")
    missing_comma = ('{"category": "chair", "relations":'
                     ' [{"relation_name": "near" "objects": [{"category": "table"}]}]}')
    with StubServer([missing_comma] * 3) as stub:
        with pytest.raises(LlmError, match="3 attempts; last error: unusable reply: "
                                           "reply JSON is malformed"):
            parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
        assert stub.request_count == 3
    # a block after a malformed one is still found
    defn = llm_module._definition_from_reply(
        '{"a" 1} then {"relation": "near", "body": {"const": 1.0}}', "near")
    assert defn.body == {"const": 1.0}


def test_a_reply_of_unclosed_braces_is_retried_within_a_scan_budget():
    """Each unclosed ``{`` restarts the block scan to the reply's end, so the
    scans of one reply share a budget: 40,000 braces raise LlmError in well
    under the minute a quadratic scan takes, and the client retries."""
    start = time.perf_counter()
    with pytest.raises(LlmError, match="reply scan passed its budget"):
        llm_module._json_from_reply("{" * 40_000, "")
    assert time.perf_counter() - start < 2.0
    with StubServer(["{" * 40_000, CHAIR_REPLY]) as stub:
        expr = parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
        assert stub.request_count == 2
    assert expr.category == "chair"


def test_an_object_after_many_unclosed_braces_is_still_found():
    assert llm_module._json_from_reply("{" * 1_000 + '{"a": 1}', "") == {"a": 1}


def test_chat_complete_roundtrip_and_ledger():
    ledger = UsageLedger()
    with StubServer(["hello back"]) as stub:
        client = LlmClient(fast_config(stub.base_url), ledger)
        bundle = assemble_prompt("parsing", utterance="hi")
        text, record = client.complete(bundle, str)
    assert text == "hello back"
    assert record.purpose == "parsing"
    assert record.completion_tokens == 2
    assert len(ledger.records) == 1
    assert stub.request_count == 1


def test_retry_exhaustion_after_three_attempts():
    with StubServer(["never seen"], fail_times=10) as stub:
        client = LlmClient(fast_config(stub.base_url))
        with pytest.raises(LlmError, match="3 attempts"):
            client.complete(assemble_prompt("parsing", utterance="x"), str)
        assert stub.request_count == 3


def test_retries_then_succeeds():
    ledger = UsageLedger()
    with StubServer(["eventually"], fail_times=2) as stub:
        client = LlmClient(fast_config(stub.base_url), ledger)
        text, _ = client.complete(assemble_prompt("parsing", utterance="x"), str)
    assert text == "eventually"
    assert stub.request_count == 3
    assert len(ledger.records) == 1  # only the successful round-trip is recorded


def test_ledger_totals_equal_record_sums():
    ledger = UsageLedger()
    with StubServer(["one two three"]) as stub:
        client = LlmClient(fast_config(stub.base_url), ledger)
        for _ in range(5):
            client.complete(assemble_prompt("parsing", utterance="x"), str)
    totals = ledger.totals()
    assert totals["calls"] == 5
    assert totals["prompt_tokens"] == sum(r.prompt_tokens for r in ledger.records)
    assert totals["completion_tokens"] == sum(r.completion_tokens for r in ledger.records)
    assert totals["wall_ms"] == pytest.approx(sum(r.wall_ms for r in ledger.records))


def test_parse_utterance_via_stub():
    ledger = UsageLedger()
    with StubServer([CHAIR_REPLY]) as stub:
        expr = parse_utterance_via_llm("chair near the table",
                                       fast_config(stub.base_url), ledger)
    assert expr.category == "chair"
    assert expr.relations[0].relation == "near"
    assert expr.relations[0].anchors[0].category == "table"
    assert len(ledger.records) == 1


def test_parse_utterance_retries_on_prose_only_reply():
    with StubServer(["no json in this reply", CHAIR_REPLY]) as stub:
        expr = parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
    assert expr.category == "chair"
    assert stub.request_count == 2


def test_parse_utterance_gives_up_after_three_attempts():
    with StubServer(["still nothing"]) as stub:
        with pytest.raises(LlmError, match="3 attempts"):
            parse_utterance_via_llm("anything", fast_config(stub.base_url))
        assert stub.request_count == 3


def test_parse_utterance_shares_one_retry_budget():
    # 2 failed requests and 1 prose reply: 3 requests in all, not 2 + 3
    with StubServer(["no json"], fail_times=2) as stub:
        with pytest.raises(LlmError, match="3 attempts"):
            parse_utterance_via_llm("anything", fast_config(stub.base_url))
        assert stub.request_count == 3


@pytest.mark.parametrize("status", [400, 401, 403, 404])
def test_client_errors_are_not_retried(status):
    with StubServer([CHAIR_REPLY], fail_times=5, fail_status=status) as stub:
        with pytest.raises(LlmError, match=f"not retried: HTTP {status}"):
            parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
        assert stub.request_count == 1


def test_server_errors_are_retried():
    with StubServer([CHAIR_REPLY], fail_times=2, fail_status=503) as stub:
        expr = parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
    assert expr.category == "chair"
    assert stub.request_count == 3


def test_llm_source_parses_dsl_reply():
    defn = encoder_to_dsl("far")
    reply = "Sure thing:\n" + json.dumps(defn.to_dict())
    with StubServer([reply]) as stub:
        source = LlmSource(client=LlmClient(fast_config(stub.base_url)))
        drawn = source.draw("far", seed=0)
    assert drawn.relation == "far"
    assert drawn.body == defn.body
    assert drawn.metadata == "llm"


def test_llm_source_rejects_wrong_relation():
    from sceneground.optimizer import CandidateSourceError

    reply = json.dumps(encoder_to_dsl("near").to_dict())
    with StubServer([reply]) as stub:
        source = LlmSource(client=LlmClient(fast_config(stub.base_url)))
        with pytest.raises(CandidateSourceError, match="expected 'far'"):
            source.draw("far", seed=0)


def test_config_from_env(monkeypatch):
    monkeypatch.delenv("LASP_LLM_ENDPOINT", raising=False)
    with pytest.raises(LlmError, match="LASP_LLM_ENDPOINT"):
        EndpointConfig.from_env()
    monkeypatch.setenv("LASP_LLM_ENDPOINT", "http://example.invalid")
    monkeypatch.setenv("LASP_LLM_API_KEY", "k")
    monkeypatch.setenv("LASP_LLM_MODEL", "m")
    config = EndpointConfig.from_env()
    assert config.endpoint == "http://example.invalid"
    assert config.api_key == "k"
    assert config.model == "m"
    assert config.temperature == 1.0
    assert config.top_p == 0.95


def test_stub_replies_in_order_and_repeats_the_last():
    with StubServer(["first reply", "second reply"]) as stub:
        client = LlmClient(fast_config(stub.base_url))
        bundle = assemble_prompt("parsing", utterance="x")
        assert client.complete(bundle, str)[0] == "first reply"
        assert client.complete(bundle, str)[0] == "second reply"
        assert client.complete(bundle, str)[0] == "second reply"  # last reply repeats


def test_importing_the_package_does_not_import_requests():
    """Nor the transport modules that ``LlmClient.complete`` imports when it
    is called: the package and its CLI load none of them."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    transport = ["requests", "urllib.request", "http.client", "ssl"]
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, sceneground, sceneground.cli; print([m for m in {transport} "
         "if m in sys.modules])"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def _sleeps(monkeypatch):
    slept = []
    monkeypatch.setattr(llm_module.time, "sleep", slept.append)
    return slept


def _refused_url():
    """The URL of a stub server that has been stopped: nothing listens there."""
    with StubServer(["never seen"]) as stub:
        url = stub.base_url
    return url


def test_a_refused_connection_is_retried_as_a_network_error(monkeypatch):
    slept = _sleeps(monkeypatch)
    ledger = UsageLedger()
    client = LlmClient(fast_config(_refused_url()), ledger)
    with pytest.raises(LlmError, match="3 attempts; last error: network error"):
        client.complete(assemble_prompt("parsing", utterance="x"), str)
    assert slept == [0.01, 0.02]  # three attempts, one budget
    assert ledger.records == ()


def test_parse_command_reports_a_refused_connection_without_traceback(monkeypatch, capsys):
    from sceneground.cli import main

    _sleeps(monkeypatch)
    monkeypatch.setenv("LASP_LLM_ENDPOINT", _refused_url())
    assert main(["parse", "--utterance", "chair near the table"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "network error" in err and "Traceback" not in err


@pytest.mark.parametrize("endpoint", ["stub", "file:///etc/passwd#", "foo://x"])
def test_an_endpoint_that_is_not_a_url_is_not_retried(monkeypatch, endpoint):
    """Only http(s) endpoints are opened: a local file is never read."""
    slept = _sleeps(monkeypatch)
    with pytest.raises(LlmError, match="not retried: unknown url type") as caught:
        LlmClient(fast_config(endpoint)).complete(assemble_prompt("parsing", utterance="x"), str)
    assert slept == []
    assert "root:" not in str(caught.value)


def test_retry_after_sets_the_wait(monkeypatch):
    slept = _sleeps(monkeypatch)
    with StubServer(["eventually"], fail_times=2, fail_status=429, retry_after=3) as stub:
        client = LlmClient(fast_config(stub.base_url))
        text, _ = client.complete(assemble_prompt("parsing", utterance="x"), str)
    assert text == "eventually"
    assert slept == [3.0, 3.0]


def test_backoff_longer_than_retry_after_wins(monkeypatch):
    slept = _sleeps(monkeypatch)
    with StubServer(["eventually"], fail_times=2, fail_status=503, retry_after="1") as stub:
        config = EndpointConfig(endpoint=stub.base_url, backoff=2.0, timeout=60.0)
        LlmClient(config).complete(assemble_prompt("parsing", utterance="x"), str)
    assert slept == [2.0, 4.0]


@pytest.mark.parametrize("status,header", [(500, 3), (429, "Wed, 21 Oct 2015 07:28:00 GMT"),
                                           (503, "-1"), (429, "1.5")])
def test_retry_after_only_as_delta_seconds_on_429_and_503(monkeypatch, status, header):
    slept = _sleeps(monkeypatch)
    with StubServer(["eventually"], fail_times=2, fail_status=status, retry_after=header) as stub:
        LlmClient(fast_config(stub.base_url)).complete(assemble_prompt("parsing", utterance="x"),
                                                       str)
    assert slept == [0.01, 0.02]


def test_total_wait_is_capped_by_the_timeout(monkeypatch):
    slept = _sleeps(monkeypatch)
    with StubServer(["never seen"], fail_times=10, fail_status=429, retry_after=6) as stub:
        client = LlmClient(fast_config(stub.base_url))  # timeout 10 s
        with pytest.raises(LlmError, match="retry budget; last error: HTTP 429"):
            client.complete(assemble_prompt("parsing", utterance="x"), str)
        assert stub.request_count == 2
    assert slept == [6.0]


class _Reply(io.BytesIO):
    """A 200 response whose body is ``data`` as JSON, or ``data`` itself
    when it is bytes."""

    status = 200
    headers: dict = {}

    def __init__(self, data):
        super().__init__(data if isinstance(data, bytes) else json.dumps(data).encode("utf-8"))


def _post_replying(monkeypatch, usage):
    """Route ``urllib.request.urlopen`` to a reply carrying ``usage`` (omitted
    when ``usage`` is the string "absent"); returns the list of posted URLs."""
    import urllib.request

    posted = []
    data = {"choices": [{"message": {"content": CHAIR_REPLY}}]}
    if usage != "absent":
        data["usage"] = usage

    def urlopen(request, **kwargs):
        posted.append(request.full_url)
        return _Reply(data)

    monkeypatch.setattr(urllib.request, "urlopen", urlopen)
    _sleeps(monkeypatch)
    return posted


@pytest.mark.parametrize("usage", ["absent", None, {}, {"prompt_tokens": None},
                                   {"prompt_tokens": 7, "completion_tokens": None}])
def test_absent_or_null_usage_counts_zero_tokens(monkeypatch, usage):
    posted = _post_replying(monkeypatch, usage)
    ledger = UsageLedger()
    expr = parse_utterance_via_llm("chair near the table", fast_config("http://stub"), ledger)
    assert expr.category == "chair"
    assert len(posted) == 1
    expected = (usage.get("prompt_tokens") or 0) if isinstance(usage, dict) else 0
    assert ledger.totals()["prompt_tokens"] == expected
    assert ledger.totals()["completion_tokens"] == 0


MALFORMED_USAGE = [[], [1, 2], "many", {"prompt_tokens": "abc"}, {"prompt_tokens": [3]},
                   {"completion_tokens": 2.5}, {"completion_tokens": -1},
                   {"prompt_tokens": True}]


@pytest.mark.parametrize("usage", MALFORMED_USAGE)
def test_malformed_usage_is_a_malformed_reply_within_the_budget(monkeypatch, usage):
    posted = _post_replying(monkeypatch, usage)
    ledger = UsageLedger()
    with pytest.raises(LlmError, match="3 attempts; last error: malformed reply"):
        parse_utterance_via_llm("chair near the table", fast_config("http://stub"), ledger)
    assert len(posted) == 3
    assert ledger.records == ()


@pytest.mark.parametrize("usage", [[], {"prompt_tokens": "abc"}, {"prompt_tokens": [3]}])
def test_parse_command_reports_malformed_usage_without_traceback(monkeypatch, capsys, usage):
    from sceneground.cli import main

    _post_replying(monkeypatch, usage)
    monkeypatch.setenv("LASP_LLM_ENDPOINT", "http://stub")
    assert main(["parse", "--utterance", "chair near the table"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed reply" in err and "Traceback" not in err


def test_null_content_is_a_malformed_reply(monkeypatch):
    import urllib.request

    reply = {"choices": [{"message": {"content": None}}]}
    monkeypatch.setattr(urllib.request, "urlopen", lambda request, **kwargs: _Reply(reply))
    _sleeps(monkeypatch)
    with pytest.raises(LlmError, match="malformed reply"):
        parse_utterance_via_llm("chair near the table", fast_config("http://stub"))


def test_a_reply_nested_too_deeply_is_retried():
    """A reply block past the recursion limit is a malformed reply, so the
    next request is made within the same budget."""
    with StubServer(['{"category": ' + DEEP_JSON + "}", CHAIR_REPLY]) as stub:
        expr = parse_utterance_via_llm("chair near the table", fast_config(stub.base_url))
        assert stub.request_count == 2
    assert expr.category == "chair"


def test_a_response_body_nested_too_deeply_is_retried(monkeypatch):
    import urllib.request

    bodies = [DEEP_JSON.encode("utf-8"), {"choices": [{"message": {"content": CHAIR_REPLY}}]}]
    monkeypatch.setattr(urllib.request, "urlopen",
                        lambda request, **kwargs: _Reply(bodies.pop(0)))
    slept = _sleeps(monkeypatch)
    ledger = UsageLedger()
    client = LlmClient(fast_config("http://stub"), ledger)
    expr, record = client.complete(assemble_prompt("parsing", utterance="chair near the table"),
                                   llm_module._expression_from_reply)
    assert expr.category == "chair"
    assert bodies == [] and slept == [0.01]  # the second attempt succeeded
    assert ledger.records == (record,)


@pytest.mark.parametrize("stub_kwargs,requests_made,replies", [
    ({"replies": [CHAIR_REPLY], "fail_times": 99, "fail_status": 401}, 1, 0),
    ({"replies": [CHAIR_REPLY], "fail_times": 99, "fail_status": 500}, 3, 0),
    ({"replies": ["no json in this reply"]}, 3, 3),
], ids=["unauthorized", "server_error", "prose_only"])
def test_llm_sourced_search_spends_one_budget_per_draw(stub_kwargs, requests_made, replies):
    import numpy as np

    from sceneground.optimizer import OptimizationAborted, OptimizerConfig, optimize_encoder
    from sceneground.registry import EncoderRegistry

    from helpers import build_margin_suite

    suite = build_margin_suite("near", np.random.default_rng(0), n_cases=10)
    ledger = UsageLedger()
    with StubServer(**stub_kwargs) as stub:
        source = LlmSource(client=LlmClient(fast_config(stub.base_url), ledger))
        with pytest.raises(OptimizationAborted, match="candidate source failed") as err:
            optimize_encoder("near", suite, source, EncoderRegistry(), OptimizerConfig())
        assert stub.request_count == requests_made
    assert err.value.history == []
    assert ledger.totals()["calls"] == replies
