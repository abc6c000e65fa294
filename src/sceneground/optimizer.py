"""Test-driven search over encoder candidates.

A relation encoder is scored against a suite of ordering triplets: the
feature value for the (target, anchor) pair must strictly exceed the value
for the (distractor, anchor) pair. Scoring evaluates each scene's feature
only at the index tuples its cases read, never the dense N^arity tensor.
Failures are rendered into deterministic error messages that a candidate
source can condition on. The search keeps the top candidates of each round,
asks the source for refinements of each, and stops early once a candidate
passes everything.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from pathlib import Path
from typing import Protocol

import numpy as np

from .dsl import (
    DefinitionError,
    EncoderDefinition,
    compile_definition,
    definition_from_dict,
    eval_encoder_at,
)
from .expression import normalize_relation_name, relation_arity
from .registry import EncoderRegistry
from .scene import PairGeometry, Scene, load_scene, precompute_geometry

__all__ = [
    "SuiteError",
    "CandidateSourceError",
    "OptimizationAborted",
    "TestCase",
    "TestSuite",
    "CandidateReport",
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

logger = logging.getLogger(__name__)

DRAW_ATTEMPTS = 3


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
    _geometry: dict[str, PairGeometry] = field(init=False, repr=False)
    _points: dict[str, tuple[np.ndarray, tuple[np.ndarray, ...]]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.cases:
            raise SuiteError(f"suite for {self.relation!r} has no cases")
        arity = relation_arity(self.relation)
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
        self._geometry = {sid: precompute_geometry(s) for sid, s in self.scenes.items()}
        self._points = self._case_points(arity)

    def _case_points(self, arity: int) -> dict[str, tuple[np.ndarray, tuple[np.ndarray, ...]]]:
        """Per scene: its case positions, and index arrays (one per object)
        holding every (target, anchors) tuple, then every (distractor, anchors)."""
        positions: dict[str, list[int]] = {}
        for k, case in enumerate(self.cases):
            positions.setdefault(case.scene_id, []).append(k)
        points = {}
        for sid, ks in positions.items():
            index_of = self.scenes[sid].index_of
            cases = [self.cases[k] for k in ks]
            rows = [index_of[c.target] for c in cases] + [index_of[c.distractor] for c in cases]
            index = [np.array(rows, dtype=np.intp)]
            for name in ("anchor", "anchor2")[:arity - 1]:
                anchors = [index_of[getattr(c, name)] for c in cases]
                index.append(np.array(anchors + anchors, dtype=np.intp))
            points[sid] = (np.array(ks, dtype=np.intp), tuple(index))
        return points

    def geometry(self, scene_id: str) -> PairGeometry:
        return self._geometry[scene_id]


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
    obj = scene.objects[scene.index_of[object_id]]
    return "[" + ", ".join(f"{v:.6f}" for v in obj.bbox.as_row()) + "]"


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


def run_test_suite(
    defn: EncoderDefinition,
    suite: TestSuite,
    outcome_memo: dict[str, tuple[bool, ...]] | None = None,
) -> CandidateReport:
    """Score a candidate; ties count as failures (strict ordering required).

    Each scene is evaluated only at its cases' (target, anchors) and
    (distractor, anchors) tuples (:func:`eval_encoder_at`), which gives the
    dense feature's entries exactly. ``outcome_memo`` maps a definition
    digest to its per-case outcomes, so a repeated candidate is not
    evaluated again. The body is checked and compiled by the definition's
    memoized pass, so a candidate that mutation already checked is not
    walked again.
    """
    if defn.relation != suite.relation:
        raise SuiteError(
            f"definition is for {defn.relation!r}, suite is for {suite.relation!r}"
        )
    try:
        compiled = compile_definition(defn)
    except DefinitionError as exc:
        return CandidateReport(definition=defn, pass_rate=0.0, failures=(),
                               note=f"validation failed: {exc}")

    digest = defn.digest()
    outcomes = outcome_memo.get(digest) if outcome_memo is not None else None
    if outcomes is None:
        passed = np.zeros(len(suite.cases), dtype=bool)
        for scene_id, (positions, index) in suite._points.items():
            values = eval_encoder_at(compiled, suite.geometry(scene_id), index)
            passed[positions] = values[:len(positions)] > values[len(positions):]
        outcomes = tuple(passed.tolist())
        if outcome_memo is not None:
            outcome_memo[digest] = outcomes
    failures = tuple(
        (case, synthesize_error_message(case, suite.scenes[case.scene_id], suite.relation))
        for case, ok in zip(suite.cases, outcomes) if not ok
    )
    return CandidateReport(
        definition=defn,
        pass_rate=sum(outcomes) / len(suite.cases),
        failures=failures,
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
        logger.warning(
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
    in-context example, the configured skeleton, the relation's builtin.
    """

    skeleton: EncoderDefinition | None = None

    def draw(self, relation, *, context=None, example=None, seed=0):
        from .builtins import encoder_to_dsl
        from .mutation import mutate_definition

        if context is not None:
            base = context[0]
        elif example is not None:
            base = example
        elif self.skeleton is not None:
            base = self.skeleton
        else:
            base = encoder_to_dsl(relation)
        if base.relation != relation:
            base = EncoderDefinition(relation=relation, body=base.body, metadata=base.metadata)
        return mutate_definition(base, seed)


@dataclass
class LlmSource:
    """Candidate source that asks a chat model for DSL-JSON definitions."""

    client: object  # llm.LlmClient; kept loose to avoid a hard import cycle

    def draw(self, relation, *, context=None, example=None, seed=0):
        from .llm import assemble_prompt, extract_json_block

        template = "refinement" if context is not None else "init_generation"
        bundle = assemble_prompt(template, relation=relation, example=example, prior=context)
        reply, _ = self.client.chat_complete(bundle)
        block = extract_json_block(reply)
        if block is None:
            raise CandidateSourceError(f"reply for {relation!r} contains no JSON object")
        try:
            raw = json.loads(block)
        except json.JSONDecodeError as exc:
            raise CandidateSourceError(f"reply JSON is malformed: {exc}") from None
        if isinstance(raw, dict) and "body" not in raw and (
                "op" in raw or "const" in raw or "get" in raw or "agg" in raw):
            # bare body tree: wrap it into a definition for the target relation
            raw = {"relation": relation, "body": raw}
        try:
            defn = definition_from_dict(raw)
        except DefinitionError as exc:
            raise CandidateSourceError(f"reply is not a definition: {exc}") from None
        if defn.relation != relation:
            raise CandidateSourceError(
                f"reply defines {defn.relation!r}, expected {relation!r}"
            )
        return EncoderDefinition(relation=relation, body=defn.body, metadata="llm")


def _draw_seed(base: int, iteration: int, parent: int, sample: int, attempt: int) -> int:
    ss = np.random.SeedSequence([base & 0xFFFFFFFF, iteration, parent, sample, attempt])
    return int(ss.generate_state(1)[0])


def _draw_with_retries(source, relation, context, example, base_seed,
                       iteration, parent, sample, history):
    last: Exception | None = None
    for attempt in range(DRAW_ATTEMPTS):
        seed = _draw_seed(base_seed, iteration, parent, sample, attempt)
        try:
            return source.draw(relation, context=context, example=example, seed=seed)
        except Exception as exc:  # noqa: BLE001 - sources are pluggable
            last = exc
            logger.warning("candidate draw failed (attempt %d/%d): %s",
                           attempt + 1, DRAW_ATTEMPTS, exc)
    raise OptimizationAborted(
        f"candidate source failed {DRAW_ATTEMPTS} times: {last}", history
    )


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

    The winning definition is accepted into the registry. Candidate budget is
    n_sample draws in the first iteration plus top_k * n_sample draws in each
    of the remaining n_iter - 1 iterations.
    """
    if suite.relation != relation:
        raise SuiteError(f"suite is for {suite.relation!r}, not {relation!r}")
    example = retrieve_example(relation, graph, registry) if graph is not None else None
    memo: dict[str, tuple[bool, ...]] = {}
    history: list[float] = []
    best: CandidateReport | None = None
    evaluated = 0

    def record(iteration: int, report: CandidateReport) -> None:
        if log is not None:
            log.append({
                "iteration": iteration,
                "index": evaluated,
                "pass_rate": report.pass_rate,
                "n_failures": len(report.failures),
                "definition_hash": report.definition.digest()[:12],
                "note": report.note,
            })

    def finish(report: CandidateReport) -> tuple[EncoderDefinition, list[float]]:
        registry.accept(report.definition)
        return report.definition, history

    # first round: sample from the init prompt (plus example, when available)
    reports: list[CandidateReport] = []
    for sample in range(cfg.n_sample):
        defn = _draw_with_retries(source, relation, None, example,
                                  cfg.seed, 1, 0, sample, history)
        report = run_test_suite(defn, suite, memo)
        evaluated += 1
        record(1, report)
        reports.append(report)
        if best is None or report.pass_rate > best.pass_rate:
            best = report
    history.append(best.pass_rate)
    if best.pass_rate == 1.0:
        return finish(best)
    parents = select_top_k(reports, cfg.top_k)

    for iteration in range(2, cfg.n_iter + 1):
        round_reports: list[CandidateReport] = []
        stop = False
        for parent_idx, parent in enumerate(parents):
            context = (parent.definition, tuple(msg for _, msg in parent.failures))
            for sample in range(cfg.n_sample):
                defn = _draw_with_retries(source, relation, context, example,
                                          cfg.seed, iteration, parent_idx, sample, history)
                report = run_test_suite(defn, suite, memo)
                evaluated += 1
                record(iteration, report)
                round_reports.append(report)
                if report.pass_rate > best.pass_rate:
                    best = report
                if report.pass_rate == 1.0:
                    stop = True
                    break
            if stop:
                break
        history.append(best.pass_rate)
        if stop:
            return finish(best)
        parents = select_top_k(round_reports, cfg.top_k)

    return finish(best)


def _case_id(entry: dict, key: str, k: int, path: str | Path,
             optional: bool = False) -> int | None:
    value = entry.get(key)
    if value is None and optional:
        return None
    if not isinstance(value, int) or isinstance(value, bool):
        raise SuiteError(f"{path}: case {k}: {key} must be an integer object id, got {value!r}")
    return value


def load_suite(path: str | Path, scenes_dir: str | Path) -> TestSuite:
    """Load a suite file; scenes are resolved by scene_id from a directory.

    Malformed input of any kind (unreadable or invalid JSON, a case without
    integer target/distractor ids, non-integer anchors) raises SuiteError.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SuiteError(f"cannot read suite {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise SuiteError(f"{path}: top level must be a JSON object")
    relation = raw.get("relation")
    if not isinstance(relation, str):
        raise SuiteError(f"{path}: missing relation")
    cases_raw = raw.get("cases")
    if not isinstance(cases_raw, list) or not cases_raw:
        raise SuiteError(f"{path}: cases must be a non-empty list")
    cases = []
    for k, entry in enumerate(cases_raw):
        if not isinstance(entry, dict) or not isinstance(entry.get("scene_id"), str):
            raise SuiteError(f"{path}: case {k} is malformed")
        cases.append(TestCase(
            scene_id=entry["scene_id"],
            target=_case_id(entry, "target", k, path),
            distractor=_case_id(entry, "distractor", k, path),
            anchor=_case_id(entry, "anchor", k, path, optional=True),
            anchor2=_case_id(entry, "anchor2", k, path, optional=True),
        ))
    scenes = {}
    scenes_dir = Path(scenes_dir)
    for scene_id in sorted({case.scene_id for case in cases}):
        scene_path = scenes_dir / f"{scene_id}.json"
        if not scene_path.exists():
            raise SuiteError(f"{path}: scene file {scene_path} not found")
        scenes[scene_id] = load_scene(scene_path)
    return TestSuite(relation=normalize_relation_name(relation), cases=tuple(cases), scenes=scenes)
