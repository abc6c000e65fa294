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

from .atomic import decode_object
from .dsl import DefinitionError, EncoderDefinition, definition_from_dict
from .expression import RELATIONS, SymbolicExpression, expression_from_dict, relation_arity

__all__ = [
    "LlmError",
    "PromptBundle",
    "UsageRecord",
    "UsageLedger",
    "EndpointConfig",
    "LlmClient",
    "assemble_prompt",
    "parse_utterance_via_llm",
]

logger = logging.getLogger(__name__)

TEMPLATE_IDS = ("parsing", "init_generation", "refinement")
_ARITY_WORDS = {1: "unary", 2: "binary: i is the target, j the anchor",
                3: "ternary: i is the target, j and k the anchors"}
# Characters the block scans of one reply may visit over all restarts: each
# unclosed ``{`` rescans to the reply's end, so n of them cost n*n/2 steps.
# This many take 0.3-0.4 s on one core of a shared 2-core x86 host; the
# builtin ``between`` definition dumped with indent=2 (137 K) is one 9 ms scan.
_SCAN_BUDGET = 4_000_000


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
        for arity in (1, 2, 3):  # the relation set U, by arity, from its one table
            system = system.replace(f"<<RELATIONS_{arity}>>", ", ".join(
                name for name, spec in RELATIONS.items() if spec.arity == arity))
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


def _balanced_blocks(text: str):
    """Each balanced ``{...}`` block, string-aware, that no earlier block
    holds: the search resumes after a block's closing brace, so the
    fragments inside a malformed block are never yielded. An unclosed ``{``
    is passed over. Past ``_SCAN_BUDGET`` characters of scanning it raises
    LlmError, so a reply of many unclosed braces spends one attempt."""
    budget = _SCAN_BUDGET
    start = text.find("{")
    while start != -1:
        resume = start + 1
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
                    yield text[start:k + 1]
                    resume = k + 1
                    break
        budget -= k + 1 - start
        if budget < 0:
            raise LlmError(f"reply scan passed its budget of {_SCAN_BUDGET} characters")
        start = text.find("{", resume)


def _json_from_reply(text: str, what: str) -> dict:
    """The one reader of LLM replies: the first balanced block of a reply
    that decodes by :func:`atomic.decode_object`'s rule; a block that does
    not (prose such as ``{i, j}``, or JSON nested past the recursion limit)
    is skipped. LlmError when the reply has no block, or none that decodes."""
    error = None
    for block in _balanced_blocks(text):
        try:
            return decode_object(block, LlmError, lambda raw: raw)
        except LlmError as exc:
            error = error or exc
    if error is None:
        raise LlmError(f"reply{what} contains no JSON object")
    raise LlmError(f"reply JSON is malformed: {error}")


class LlmClient:
    """OpenAI-compatible chat-completions client with retries and accounting."""

    def __init__(self, config: EndpointConfig, ledger: UsageLedger | None = None):
        self.config = config
        self.ledger = ledger if ledger is not None else UsageLedger()

    def complete(self, bundle: PromptBundle, parse) -> tuple[object, UsageRecord]:
        """Send ``bundle`` until ``parse(reply text)`` succeeds. Network errors,
        HTTP errors, malformed replies and replies ``parse`` rejects share the
        ``max_attempts`` budget; a 400/401/403/404, or an endpoint that is not
        an http(s) URL, is not retried. A body that :func:`atomic.decode_object`
        rejects, one nested past the recursion limit too, is a malformed reply.

        Before each resend the client waits the exponential backoff, or a
        429/503 reply's delta-seconds ``Retry-After`` when that is longer.
        The waits of one call total at most ``timeout`` seconds: a wait that
        would pass it ends the call with LlmError instead.
        """
        # deferred, so that importing the package loads no http.client, email or ssl
        import http.client
        import urllib.error
        import urllib.request

        url = self.config.endpoint.rstrip("/") + "/chat/completions"
        headers = {"Content-Type": "application/json"}
        if self.config.api_key:
            headers["Authorization"] = f"Bearer {self.config.api_key}"
        payload = json.dumps({
            "model": self.config.model,
            "messages": [
                {"role": "system", "content": bundle.system},
                {"role": "user", "content": bundle.user},
            ],
            "temperature": self.config.temperature,
            "top_p": self.config.top_p,
        }).encode("utf-8")
        try:  # urlopen also opens file:, ftp: and data: URLs; a resend cannot fix any
            request = urllib.request.Request(url, data=payload, headers=headers, method="POST")
            if request.type not in ("http", "https"):
                raise ValueError(f"unknown url type: {url!r}")
        except ValueError as exc:
            raise LlmError(f"chat completion failed, not retried: {exc}") from None
        last_error = "no attempts made"
        asked = 0.0  # seconds the last reply's Retry-After asked for
        slept = 0.0
        for attempt in range(self.config.max_attempts):
            if attempt:
                wait = max(self.config.backoff * (2 ** (attempt - 1)), asked)
                if slept + wait > self.config.timeout:
                    raise LlmError(
                        f"chat completion failed: waiting {wait:g}s more would pass the "
                        f"{self.config.timeout:g}s retry budget; last error: {last_error}")
                logger.warning("chat call failed (attempt %d): %s", attempt, last_error)
                time.sleep(wait)
                slept += wait
                asked = 0.0
            started = time.perf_counter()
            try:
                try:
                    response = urllib.request.urlopen(request, timeout=self.config.timeout)
                except urllib.error.HTTPError as exc:  # an OSError, so caught first
                    response = exc
                with response:
                    status, body = response.status, response.read()
                    retry_after = response.headers.get("Retry-After")
            except (OSError, http.client.HTTPException) as exc:
                last_error = f"network error: {exc}"
                continue
            if status != 200:
                last_error = f"HTTP {status}: {body.decode('utf-8', 'replace')[:200]}"
                if status in (400, 401, 403, 404):  # a resend cannot fix it
                    raise LlmError(f"chat completion failed, not retried: {last_error}")
                if status in (429, 503):
                    asked = _retry_after_seconds(retry_after)
                continue
            try:
                data = decode_object(body, LlmError, lambda raw: raw)
                text = data["choices"][0]["message"]["content"]
                usage = data.get("usage")  # absent or null, like its fields, counts as 0
                tokens = [0 if usage is None or usage.get(key) is None else usage[key]
                          for key in ("prompt_tokens", "completion_tokens")]
                if not isinstance(text, str) or any(type(n) is not int or n < 0 for n in tokens):
                    raise TypeError(f"content {text!r:.40} or usage {usage!r:.80} is not valid")
            except (LlmError, ValueError, LookupError, TypeError, AttributeError) as exc:
                last_error = f"malformed reply: {exc}"
                continue
            record = UsageRecord(bundle.template_id, *tokens,
                                 wall_ms=(time.perf_counter() - started) * 1000.0)
            self.ledger.add(record)
            try:
                return parse(text), record
            except (LlmError, ValueError) as exc:  # an unusable reply is retried
                last_error = f"unusable reply: {exc}"
        raise LlmError(
            f"chat completion failed after {self.config.max_attempts} attempts; "
            f"last error: {last_error}"
        )


def _retry_after_seconds(value: str | None) -> float:
    """The delay a delta-seconds ``Retry-After`` value asks for; 0 for none
    and for the HTTP-date form."""
    value = (value or "").strip()
    return float(value) if value.isascii() and value.isdigit() else 0.0


def _expression_from_reply(text: str) -> SymbolicExpression:
    return expression_from_dict(_json_from_reply(text, ""))


def _definition_from_reply(text: str, relation: str) -> EncoderDefinition:
    """The definition for ``relation`` in a reply; a bare body tree is
    wrapped into one. A reply that holds none raises LlmError."""
    raw = _json_from_reply(text, f" for {relation!r}")
    if "body" not in raw and not raw.keys().isdisjoint(("op", "const", "get", "agg")):
        # bare body tree: wrap it into a definition for the target relation
        raw = {"relation": relation, "body": raw}
    try:
        defn = definition_from_dict(raw)
    except DefinitionError as exc:
        raise LlmError(f"reply is not a definition: {exc}") from None
    if defn.relation != relation:
        raise LlmError(f"reply defines {defn.relation!r}, expected {relation!r}")
    return EncoderDefinition(relation=relation, body=defn.body, metadata="llm")


def parse_utterance_via_llm(
    utterance: str,
    config: EndpointConfig | None = None,
    ledger: UsageLedger | None = None,
) -> SymbolicExpression:
    """Expression parsed from the reply; a reply without one is retried."""
    client = LlmClient(config if config is not None else EndpointConfig.from_env(), ledger)
    return client.complete(assemble_prompt("parsing", utterance=utterance),
                           _expression_from_reply)[0]
