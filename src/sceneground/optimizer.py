"""Test-driven search over encoder candidates.

A relation encoder is scored against a suite of ordering triplets: the
feature value for the (target, anchor) pair must strictly exceed the value
for the (distractor, anchor) pair. A suite gathers the index tuples its
cases read, across all its scenes, into one plan, so scoring a candidate is
one evaluation over the whole suite, never the dense N^arity tensor. A
search keeps one :class:`SearchMemo` of the subtree values it has computed
on its suite's plan, so a mutated child evaluates only its new path.
Failures are rendered once per suite into deterministic error messages that
a candidate source can condition on. The search is one loop over rounds:
the first round refines one empty parent (the init prompt), each later one
the top candidates of the round before, and the search stops early once a
candidate passes everything. A draw is one call of the source, which does
its own retrying; a source that fails aborts the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, product
from operator import not_
from pathlib import Path
from typing import Protocol

import numpy as np

from .atomic import load_json
from .builtins import encoder_to_dsl
from .dsl import (
    DefinitionError,
    EncoderDefinition,
    GatherPlan,
    compile_definition,
    eval_gathered,
)
from .expression import ExpressionError, normalize_relation_name, relation_arity
from .mutation import mutate_definition
from .registry import EncoderRegistry
from .scene import Scene, load_scene, precompute_geometry

__all__ = [
    "SuiteError",
    "CandidateSourceError",
    "OptimizationAborted",
    "TestCase",
    "TestSuite",
    "CandidateReport",
    "SearchMemo",
    "OptimizerConfig",
    "ExampleGraph",
    "default_example_graph",
    "run_test_suite",
    "synthesize_error_message",
    "select_top_k",
    "retrieve_example",
    "optimize_encoder",
    "CandidateSource",
    "MutationSource",
    "LlmSource",
    "load_suite",
]


class SuiteError(ValueError):
    """Raised for malformed test suites."""


class CandidateSourceError(RuntimeError):
    """Raised when a candidate source cannot produce a definition."""


class OptimizationAborted(RuntimeError):
    """Search aborted mid-run; carries the per-iteration history so far."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


@dataclass(frozen=True)
class TestCase:
    """One ordering constraint: target must out-score distractor.

    Unary relations compare rank-1 feature entries directly; binary relations
    compare against a fixed anchor, ternary against a fixed anchor pair.
    """

    __test__ = False  # library type, not a pytest class

    scene_id: str
    target: int
    distractor: int
    anchor: int | None = None
    anchor2: int | None = None


@dataclass
class TestSuite:
    __test__ = False  # library type, not a pytest class

    relation: str
    cases: tuple[TestCase, ...]
    scenes: dict[str, Scene]
    _plan: GatherPlan = field(init=False, repr=False)
    # each case, in order, with its failure message
    _case_messages: tuple[tuple[TestCase, str], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.cases:
            raise SuiteError(f"suite for {self.relation!r} has no cases")
        try:
            arity = relation_arity(self.relation)
        except ExpressionError as exc:
            raise SuiteError(str(exc)) from None
        for k, case in enumerate(self.cases):
            scene = self.scenes.get(case.scene_id)
            if scene is None:
                raise SuiteError(f"case {k}: unknown scene {case.scene_id!r}")
            referenced = [case.target, case.distractor]
            if arity >= 2:
                if case.anchor is None:
                    raise SuiteError(f"case {k}: relation {self.relation!r} needs an anchor")
                referenced.append(case.anchor)
            if arity == 3:
                if case.anchor2 is None:
                    raise SuiteError(f"case {k}: relation {self.relation!r} needs two anchors")
                referenced.append(case.anchor2)
            for oid in referenced:
                if oid not in scene.index_of:
                    raise SuiteError(f"case {k}: id {oid} not in scene {case.scene_id!r}")
            if case.target == case.distractor:
                raise SuiteError(f"case {k}: target and distractor are both {case.target}")
            anchors = set(referenced[2:])
            if anchors & {case.target, case.distractor}:
                raise SuiteError(f"case {k}: anchors must differ from target and distractor")
        self._plan = self._gather_plan(arity)
        self._case_messages = tuple(
            (case, synthesize_error_message(case, self.scenes[case.scene_id], self.relation))
            for case in self.cases)

    def _gather_plan(self, arity: int) -> GatherPlan:
        """One plan over every scene: each case's (target, anchors) point in
        case order, then each case's (distractor, anchors) point."""
        order = {sid: k for k, sid in enumerate(self.scenes)}

        def column(name: str) -> list[int]:
            return [self.scenes[c.scene_id].index_of[getattr(c, name)] for c in self.cases]

        index = [column("target") + column("distractor")]
        for name in ("anchor", "anchor2")[:arity - 1]:
            index.append(column(name) * 2)
        segment = [order[c.scene_id] for c in self.cases] * 2
        return GatherPlan([precompute_geometry(s) for s in self.scenes.values()], segment, index)


@dataclass(frozen=True)
class CandidateReport:
    definition: EncoderDefinition
    pass_rate: float
    failures: tuple[tuple[TestCase, str], ...]
    note: str = ""


@dataclass(frozen=True)
class OptimizerConfig:
    n_iter: int = 5
    n_sample: int = 5
    top_k: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_iter < 1 or self.n_sample < 1 or self.top_k < 1:
            raise ValueError("n_iter, n_sample and top_k must all be positive")


def _format_box(scene: Scene, object_id: int) -> str:
    row = scene.boxes[scene.index_of[object_id]].tolist()
    return "[" + ", ".join(f"{v:.6f}" for v in row) + "]"


def synthesize_error_message(case: TestCase, scene: Scene, relation: str) -> str:
    """Deterministic failure text for one test case; byte-stable by contract."""
    spoken = relation.replace("_", " ")
    target = _format_box(scene, case.target)
    distractor = _format_box(scene, case.distractor)
    if case.anchor is None:
        return (
            f"{target} is {spoken} So feature value of {target} should be larger "
            f"than the feature value of {distractor}."
        )
    anchor = _format_box(scene, case.anchor)
    if case.anchor2 is not None:
        anchor = f"{anchor} and {_format_box(scene, case.anchor2)}"
    return (
        f'{target} is {spoken} {anchor} So feature value of {target} "{relation}" '
        f'{anchor} should be larger than the feature value of {distractor} '
        f'"{relation}" {anchor}.'
    )


@dataclass
class SearchMemo:
    """What a search has computed on one suite: per-case ``outcomes`` by
    definition digest, and ``values`` of subtrees on the suite's plan by
    node text (the memo of :func:`eval_gathered`). It is bound to the plan
    it was made for and lives as long as the search that made it."""

    plan: GatherPlan
    outcomes: dict[str, tuple[bool, ...]] = field(default_factory=dict)
    values: dict[str, object] = field(default_factory=dict)


def run_test_suite(
    defn: EncoderDefinition,
    suite: TestSuite,
    memo: SearchMemo | None = None,
) -> CandidateReport:
    """Score a candidate; ties count as failures (strict ordering required).

    One evaluation covers the whole suite: the body runs once over every
    case's (target, anchors) and (distractor, anchors) points of all scenes
    (:func:`eval_gathered` on the suite's plan), which gives the dense
    features' entries exactly. ``memo`` (a fresh one when none is given)
    must be one made for this suite's plan: a repeated candidate takes its
    outcomes from it, and any other evaluates only the subtrees whose
    values it lacks. The body is checked by the definition's memoized pass,
    so a candidate that mutation already checked is not walked again.
    Failure messages are rendered once, when the suite is built.
    """
    if defn.relation != suite.relation:
        raise SuiteError(
            f"definition is for {defn.relation!r}, suite is for {suite.relation!r}"
        )
    if memo is None:
        memo = SearchMemo(suite._plan)
    elif memo.plan is not suite._plan:
        raise ValueError("memo was made for another suite")
    try:
        compiled = compile_definition(defn)
    except DefinitionError as exc:
        return CandidateReport(definition=defn, pass_rate=0.0, failures=(),
                               note=f"validation failed: {exc}")

    digest = defn.digest()
    outcomes = memo.outcomes.get(digest)
    if outcomes is None:
        values = eval_gathered(compiled, suite._plan, memo.values)
        n_cases = len(suite.cases)
        outcomes = memo.outcomes[digest] = tuple((values[:n_cases] > values[n_cases:]).tolist())
    return CandidateReport(
        definition=defn,
        pass_rate=sum(outcomes) / len(suite.cases),
        failures=tuple(compress(suite._case_messages, map(not_, outcomes))),
    )


def select_top_k(reports: list[CandidateReport], k: int) -> list[CandidateReport]:
    """Best-first by pass rate; stable, so generation order breaks ties."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return sorted(reports, key=lambda r: -r.pass_rate)[:k]


class ExampleGraph:
    """In-context example selection: an edge A -> B means A's accepted
    encoder seeds the generation prompt for B. Each node has at most one
    predecessor and the graph is acyclic."""

    def __init__(self, edges: list[tuple[str, str]]):
        self._predecessor: dict[str, str] = {}
        for src, dst in edges:
            relation_arity(src)
            relation_arity(dst)
            if dst in self._predecessor:
                raise ValueError(f"relation {dst!r} already has predecessor "
                                 f"{self._predecessor[dst]!r}")
            self._predecessor[dst] = src
        for start in self._predecessor:
            seen = {start}
            node = start
            while node in self._predecessor:
                node = self._predecessor[node]
                if node in seen:
                    raise ValueError(f"example graph has a cycle through {node!r}")
                seen.add(node)

    def predecessor(self, relation: str) -> str | None:
        return self._predecessor.get(relation)


def default_example_graph() -> ExampleGraph:
    """Default pairing of structurally similar relations; the complements are
    generated with their counterpart as the in-context example."""
    return ExampleGraph([
        ("near", "far"),
        ("above", "below"),
        ("left", "right"),
        ("front", "behind"),
        ("large", "small"),
        ("high", "low"),
        ("near", "between"),
        ("against_the_wall", "on_the_floor"),
    ])


def retrieve_example(
    relation: str,
    graph: ExampleGraph,
    registry: EncoderRegistry,
) -> EncoderDefinition | None:
    """Accepted encoder of the relation's predecessor, if there is one."""
    predecessor = graph.predecessor(relation)
    if predecessor is None:
        return None
    accepted = registry.accepted_definition(predecessor)
    if accepted is None:
        import logging  # only a warning loads it

        logging.getLogger(__name__).warning(
            "example graph names %r as predecessor of %r, but no encoder for it "
            "was accepted yet", predecessor, relation,
        )
    return accepted


class CandidateSource(Protocol):
    def draw(
        self,
        relation: str,
        *,
        context: tuple[EncoderDefinition, tuple[str, ...]] | None = None,
        example: EncoderDefinition | None = None,
        seed: int = 0,
    ) -> EncoderDefinition:
        ...


@dataclass
class MutationSource:
    """Offline candidate source backed by seeded structural mutation.

    Base definition for a draw, in order: the refinement context, the
    configured skeleton, the relation's builtin. The in-context example is
    not a base: an example-graph edge A -> B makes A's encoder a reference
    for generating B (:class:`LlmSource` puts it in its prompt), and B's
    search would start from A's structure otherwise.
    """

    skeleton: EncoderDefinition | None = None

    def draw(self, relation, *, context=None, example=None, seed=0):
        if context is not None:
            base = context[0]
        elif self.skeleton is not None:
            base = self.skeleton
        else:
            base = encoder_to_dsl(relation)
        if base.relation != relation:
            base = EncoderDefinition(relation=relation, body=base.body, metadata=base.metadata)
        return mutate_definition(base, seed)


@dataclass
class LlmSource:
    """Candidate source that asks a chat model for DSL-JSON definitions; a
    reply with no definition for the relation is retried within the client's
    one ``max_attempts`` budget."""

    client: object  # llm.LlmClient; kept loose to avoid a hard import cycle

    def draw(self, relation, *, context=None, example=None, seed=0):
        from .llm import LlmError, _definition_from_reply, assemble_prompt

        template = "refinement" if context is not None else "init_generation"
        bundle = assemble_prompt(template, relation=relation, example=example, prior=context)
        try:
            return self.client.complete(
                bundle, lambda text: _definition_from_reply(text, relation))[0]
        except LlmError as exc:
            raise CandidateSourceError(f"no definition for {relation!r}: {exc}") from exc


def _draw_seed(base: int, iteration: int, parent: int, sample: int) -> int:
    """The seed of one draw: the first word of a ``SeedSequence`` keyed by
    the search's base seed (its low 32 bits), the round, the parent and the
    sample. The entropy is given as one ``uint32`` array, which hashes the
    same five words as the list ``[base & 0xFFFFFFFF, iteration, parent,
    sample, 0]`` at half its cost; the two agree while every word is below
    2**32, as the masked base and the loop counters are."""
    # the trailing 0 is part of the key: without it every search's draws change
    entropy = np.array([base & 0xFFFFFFFF, iteration, parent, sample, 0], dtype=np.uint32)
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


def optimize_encoder(
    relation: str,
    suite: TestSuite,
    source: CandidateSource,
    registry: EncoderRegistry,
    cfg: OptimizerConfig,
    graph: ExampleGraph | None = None,
    log: list[dict] | None = None,
) -> tuple[EncoderDefinition, list[float]]:
    """Iterative sample -> test -> refine search; returns the best candidate
    and the best-so-far pass rate after each completed iteration.

    Each round draws n_sample candidates per parent: round 1 from one empty
    parent (the init prompt), each later round from the top_k of the round
    before, refined with their failure messages. Round 1 is evaluated whole,
    a later round stops at its first perfect candidate, and a round with a
    perfect candidate ends the search; a source that raises aborts it. The
    winner is accepted into the registry. Candidates are scored with one
    :class:`SearchMemo`, dropped when the search returns.
    """
    if suite.relation != relation:
        raise SuiteError(f"suite is for {suite.relation!r}, not {relation!r}")
    example = retrieve_example(relation, graph, registry) if graph is not None else None
    memo = SearchMemo(suite._plan)
    history: list[float] = []
    best: CandidateReport | None = None
    evaluated = 0
    contexts: list[tuple[EncoderDefinition, tuple[str, ...]] | None] = [None]
    for iteration in range(1, cfg.n_iter + 1):
        reports: list[CandidateReport] = []
        for (parent, context), sample in product(enumerate(contexts), range(cfg.n_sample)):
            seed = _draw_seed(cfg.seed, iteration, parent, sample)
            try:
                defn = source.draw(relation, context=context, example=example, seed=seed)
            except Exception as exc:  # noqa: BLE001 - sources are pluggable
                raise OptimizationAborted(f"candidate source failed: {exc}", history) from exc
            report = run_test_suite(defn, suite, memo)
            evaluated += 1
            if log is not None:
                log.append({
                    "iteration": iteration,
                    "index": evaluated,
                    "pass_rate": report.pass_rate,
                    "n_failures": len(report.failures),
                    "definition_hash": report.definition.digest()[:12],
                    "note": report.note,
                })
            reports.append(report)
            if best is None or report.pass_rate > best.pass_rate:
                best = report
            if report.pass_rate == 1.0 and iteration > 1:
                break
        history.append(best.pass_rate)
        if best.pass_rate == 1.0:
            break
        contexts = [(r.definition, tuple(msg for _, msg in r.failures))
                    for r in select_top_k(reports, cfg.top_k)]
    registry.accept(best.definition)
    return best.definition, history


def _case_id(entry: dict, key: str, k: int, optional: bool = False) -> int | None:
    value = entry.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise SuiteError(f"case {k}: {key} must be an integer object id, got {value!r}")
    return value


def load_suite(path: str | Path, scenes_dir: str | Path) -> TestSuite:
    """Load a suite file; scenes are resolved by scene_id from a directory.

    Malformed input of any kind (unreadable or invalid JSON, a case without
    integer target/distractor ids, non-integer anchors, a scene_id that is
    not a plain file name: empty, ``.``, ``..``, or with a path separator,
    an absolute path included) raises SuiteError naming the file.
    """
    return load_json(path, SuiteError, lambda raw: _suite_from_dict(raw, Path(scenes_dir)))


def _suite_from_dict(raw: dict, scenes_dir: Path) -> TestSuite:
    relation = raw.get("relation")
    if not isinstance(relation, str):
        raise SuiteError("missing relation")
    cases_raw = raw.get("cases")
    if not isinstance(cases_raw, list) or not cases_raw:
        raise SuiteError("cases must be a non-empty list")
    cases = []
    for k, entry in enumerate(cases_raw):
        if not isinstance(entry, dict) or not isinstance(entry.get("scene_id"), str):
            raise SuiteError(f"case {k} is malformed")
        scene_id = entry["scene_id"]
        if scene_id in ("", ".", "..") or "/" in scene_id or "\\" in scene_id:
            raise SuiteError(f"case {k}: scene_id {scene_id!r} is not a plain file name")
        cases.append(TestCase(
            scene_id=scene_id,
            target=_case_id(entry, "target", k),
            distractor=_case_id(entry, "distractor", k),
            anchor=_case_id(entry, "anchor", k, optional=True),
            anchor2=_case_id(entry, "anchor2", k, optional=True),
        ))
    scenes = {}
    for scene_id in sorted({case.scene_id for case in cases}):
        scene_path = scenes_dir / f"{scene_id}.json"
        if not scene_path.exists():
            raise SuiteError(f"scene file {scene_path} not found")
        scenes[scene_id] = load_scene(scene_path)
    return TestSuite(relation=normalize_relation_name(relation), cases=tuple(cases), scenes=scenes)
