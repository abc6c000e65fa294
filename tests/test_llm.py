import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sceneground.builtins import encoder_to_dsl
from sceneground.llm import (
    EndpointConfig,
    LlmClient,
    LlmError,
    UsageLedger,
    UsageRecord,
    assemble_prompt,
    extract_json_block,
    parse_utterance_via_llm,
)
from sceneground.optimizer import LlmSource
from sceneground.stub_server import StubServer

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


def test_unknown_template_rejected():
    with pytest.raises(LlmError, match="unknown template"):
        assemble_prompt("zen")


def test_extract_json_block():
    assert extract_json_block('prose {"a": 1} more') == '{"a": 1}'
    assert extract_json_block('{"a": {"b": 2}} {"c": 3}') == '{"a": {"b": 2}}'
    assert extract_json_block('{"s": "brace } in string"}') == '{"s": "brace } in string"}'
    assert extract_json_block("no json here") is None
    assert extract_json_block("{unclosed") is None


def test_chat_complete_roundtrip_and_ledger():
    ledger = UsageLedger()
    with StubServer(["hello back"]) as stub:
        client = LlmClient(fast_config(stub.base_url), ledger)
        bundle = assemble_prompt("parsing", utterance="hi")
        text, record = client.chat_complete(bundle)
    assert text == "hello back"
    assert record.purpose == "parsing"
    assert record.completion_tokens == 2
    assert len(ledger.records) == 1
    assert stub.request_count == 1


def test_retry_exhaustion_after_three_attempts():
    with StubServer(["never seen"], fail_times=10) as stub:
        client = LlmClient(fast_config(stub.base_url))
        with pytest.raises(LlmError, match="3 attempts"):
            client.chat_complete(assemble_prompt("parsing", utterance="x"))
        assert stub.request_count == 3


def test_retries_then_succeeds():
    ledger = UsageLedger()
    with StubServer(["eventually"], fail_times=2) as stub:
        client = LlmClient(fast_config(stub.base_url), ledger)
        text, _ = client.chat_complete(assemble_prompt("parsing", utterance="x"))
    assert text == "eventually"
    assert stub.request_count == 3
    assert len(ledger.records) == 1  # only the successful round-trip is recorded


def test_ledger_totals_equal_record_sums():
    ledger = UsageLedger()
    with StubServer(["one two three"]) as stub:
        client = LlmClient(fast_config(stub.base_url), ledger)
        for _ in range(5):
            client.chat_complete(assemble_prompt("parsing", utterance="x"))
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


def test_stub_replies_from_fixture_files(tmp_path):
    (tmp_path / "a_first.txt").write_text("first reply", encoding="utf-8")
    (tmp_path / "b_second.txt").write_text("second reply", encoding="utf-8")
    with StubServer.from_dir(tmp_path) as stub:
        client = LlmClient(fast_config(stub.base_url))
        bundle = assemble_prompt("parsing", utterance="x")
        assert client.chat_complete(bundle)[0] == "first reply"
        assert client.chat_complete(bundle)[0] == "second reply"
        assert client.chat_complete(bundle)[0] == "second reply"  # last reply repeats


def test_importing_the_package_does_not_import_requests():
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, sceneground; print('requests' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
