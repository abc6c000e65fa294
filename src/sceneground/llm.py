"""Chat-completion client for semantic parsing and encoder generation.

All prompt assembly is deterministic string work over the templates shipped
in ``prompts/``; the network client is a thin OpenAI-compatible wrapper with
retries and a usage ledger. Offline workflows read pre-parsed expression
files and never touch the network.
"""

from __future__ import annotations

import json
import logging
import os
import threading
import time
from dataclasses import dataclass
from importlib import resources

from .dsl import EncoderDefinition
from .expression import SymbolicExpression, parse_expression, relation_arity

__all__ = [
    "LlmError",
    "PromptBundle",
    "UsageRecord",
    "UsageLedger",
    "EndpointConfig",
    "LlmClient",
    "assemble_prompt",
    "extract_json_block",
    "parse_utterance_via_llm",
]

logger = logging.getLogger(__name__)

TEMPLATE_IDS = ("parsing", "init_generation", "refinement")
_ARITY_WORDS = {1: "unary", 2: "binary: i is the target, j the anchor",
                3: "ternary: i is the target, j and k the anchors"}


class LlmError(RuntimeError):
    """Raised when the endpoint fails or returns an unusable reply."""


@dataclass(frozen=True)
class PromptBundle:
    system: str
    user: str
    template_id: str


@dataclass(frozen=True)
class UsageRecord:
    purpose: str
    prompt_tokens: int
    completion_tokens: int
    wall_ms: float


class UsageLedger:
    """Append-only record of endpoint calls; totals equal the record sums."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._records: list[UsageRecord] = []

    def add(self, record: UsageRecord) -> None:
        with self._lock:
            self._records.append(record)

    @property
    def records(self) -> tuple[UsageRecord, ...]:
        with self._lock:
            return tuple(self._records)

    def totals(self) -> dict[str, float]:
        records = self.records
        return {
            "calls": len(records),
            "prompt_tokens": sum(r.prompt_tokens for r in records),
            "completion_tokens": sum(r.completion_tokens for r in records),
            "wall_ms": sum(r.wall_ms for r in records),
        }


@dataclass(frozen=True)
class EndpointConfig:
    endpoint: str
    api_key: str = ""
    model: str = "gpt-4o"
    temperature: float = 1.0
    top_p: float = 0.95
    timeout: float = 120.0
    max_attempts: int = 3
    backoff: float = 0.5

    @classmethod
    def from_env(cls) -> "EndpointConfig":
        endpoint = os.environ.get("LASP_LLM_ENDPOINT", "")
        if not endpoint:
            raise LlmError("LASP_LLM_ENDPOINT is not set")
        return cls(
            endpoint=endpoint,
            api_key=os.environ.get("LASP_LLM_API_KEY", ""),
            model=os.environ.get("LASP_LLM_MODEL", "gpt-4o"),
        )


def _load_template(name: str) -> str:
    return resources.files("sceneground").joinpath("prompts", f"{name}.txt").read_text("utf-8")


def _split_template(text: str) -> tuple[str, str]:
    if "[system]" not in text or "[user]" not in text:
        raise LlmError("template missing [system]/[user] sections")
    _, rest = text.split("[system]", 1)
    system, user = rest.split("[user]", 1)
    return system.strip(), user.strip()


def _definition_text(defn: EncoderDefinition) -> str:
    return json.dumps(defn.to_dict(), indent=2)


def assemble_prompt(
    template_id: str,
    *,
    relation: str | None = None,
    example: EncoderDefinition | None = None,
    prior: tuple[EncoderDefinition, tuple[str, ...]] | None = None,
    utterance: str | None = None,
) -> PromptBundle:
    """Deterministic prompt assembly from the shipped template files.

    Refinement bundles are the init-generation prompt plus exactly one prior
    definition and its error messages, in suite order.
    """
    if template_id not in TEMPLATE_IDS:
        raise LlmError(f"unknown template {template_id!r}; expected one of {TEMPLATE_IDS}")

    if template_id == "parsing":
        if utterance is None:
            raise LlmError("parsing template needs an utterance")
        system, user = _split_template(_load_template("parsing"))
        return PromptBundle(system=system, user=user.replace("<<UTTERANCE>>", utterance),
                            template_id="parsing")

    if relation is None:
        raise LlmError(f"{template_id} template needs a relation")
    system, user = _split_template(_load_template("generation"))
    arity_word = _ARITY_WORDS[relation_arity(relation)]
    system = system.replace("<<RELATION>>", relation)
    user = user.replace("<<RELATION>>", relation).replace("<<ARITY_WORD>>", arity_word)
    if example is not None:
        section = "A known-good encoder for a related relation:\n" + _definition_text(example)
    else:
        section = ""
    user = user.replace("<<EXAMPLE_SECTION>>", section).rstrip()

    if template_id == "init_generation":
        return PromptBundle(system=system, user=user, template_id=template_id)

    if prior is None:
        raise LlmError(f"{template_id} template needs a prior definition")
    prior_defn, messages = prior
    suffix = _load_template("refinement_suffix")
    suffix = suffix.replace("<<PRIOR_CODE>>", _definition_text(prior_defn))
    suffix = suffix.replace("<<ERRORS>>", "\n".join(messages) if messages else "(none)")
    return PromptBundle(system=system, user=user + "\n" + suffix.rstrip(),
                        template_id=template_id)


def extract_json_block(text: str) -> str | None:
    """First balanced ``{...}`` block, string-aware; None when there is none."""
    start = text.find("{")
    while start != -1:
        depth = 0
        in_string = False
        escaped = False
        for k in range(start, len(text)):
            c = text[k]
            if in_string:
                if escaped:
                    escaped = False
                elif c == "\\":
                    escaped = True
                elif c == '"':
                    in_string = False
            elif c == '"':
                in_string = True
            elif c == "{":
                depth += 1
            elif c == "}":
                depth -= 1
                if depth == 0:
                    return text[start:k + 1]
        start = text.find("{", start + 1)
    return None


class LlmClient:
    """OpenAI-compatible chat-completions client with retries and accounting."""

    def __init__(self, config: EndpointConfig, ledger: UsageLedger | None = None):
        self.config = config
        self.ledger = ledger if ledger is not None else UsageLedger()

    def chat_complete(self, bundle: PromptBundle) -> tuple[str, UsageRecord]:
        """Reply text and its usage record."""
        return self._complete(bundle, lambda text: text)

    def parse_utterance(self, utterance: str) -> SymbolicExpression:
        """Expression parsed from the reply; a reply without one is retried."""
        return self._complete(assemble_prompt("parsing", utterance=utterance),
                              _expression_from_reply)[0]

    def _complete(self, bundle: PromptBundle, parse) -> tuple[object, UsageRecord]:
        """Send ``bundle`` until ``parse(reply text)`` succeeds. Network errors,
        HTTP errors, malformed replies and replies ``parse`` rejects share the
        ``max_attempts`` budget; a 400/401/403/404 is not retried."""
        import requests  # deferred: importing it costs more than the rest of the package

        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        payload = {
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": bundle.system},
                {"role": "user", "content": bundle.user},
            ],
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }
        last_error = "no attempts made"
        for attempt in range(self.config.max_attempts):
            if attempt:
                logger.warning("chat call failed (attempt %d): %s", attempt, last_error)
                time.sleep(self.config.backoff * (2 ** (attempt - 1)))
            started = time.perf_counter()
            try:
                response = requests.post(url, headers=headers, json=payload,
                                         timeout=self.config.timeout)
            except requests.RequestException as exc:
                last_error = f"network error: {exc}"
                continue
            if response.status_code != 200:
                last_error = f"HTTP {response.status_code}: {response.text[:200]}"
                if response.status_code in (400, 401, 403, 404):  # a resend cannot fix it
                    raise LlmError(f"chat completion failed, not retried: {last_error}")
                continue
            try:
                data = response.json()
                text = data["choices"][0]["message"]["content"]
                usage = data.get("usage", {})
            except (ValueError, LookupError, TypeError) as exc:
                last_error = f"malformed reply: {exc}"
                continue
            record = UsageRecord(
                purpose=bundle.template_id,
                prompt_tokens=int(usage.get("prompt_tokens", 0)),
                completion_tokens=int(usage.get("completion_tokens", 0)),
                wall_ms=(time.perf_counter() - started) * 1000.0,
            )
            self.ledger.add(record)
            try:
                return parse(text), record
            except (LlmError, ValueError) as exc:  # an unusable reply is retried
                last_error = f"unusable reply: {exc}"
        raise LlmError(
            f"chat completion failed after {self.config.max_attempts} attempts; "
            f"last error: {last_error}"
        )


def _expression_from_reply(text: str) -> SymbolicExpression:
    block = extract_json_block(text)
    if block is None:
        raise LlmError("reply contains no JSON object")
    return parse_expression(block)


def parse_utterance_via_llm(
    utterance: str,
    config: EndpointConfig | None = None,
    ledger: UsageLedger | None = None,
) -> SymbolicExpression:
    client = LlmClient(config if config is not None else EndpointConfig.from_env(), ledger)
    return client.parse_utterance(utterance)
