"""Command-line surface: parse, ground, optimize, bench.

A subcommand imports what it runs: only ``parse --utterance`` and
``optimize --source llm`` load the LLM client, so ``ground``, ``bench`` and
the offline ``parse`` forms never do.

Every subcommand accepts ``--config file.json`` holding the same fields as
its flags; a key that no subcommand has a flag for is an error. Precedence
is flags > config > defaults. Exit codes: 0 success, 1 runtime error (a
MemoryError too), 2 input validation error (an :class:`~sceneground.atomic.InputError`).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from pathlib import Path

from .atomic import InputError, load_json, load_lines, write_text_atomic
from .bench import report_to_dict, run_bench
from .executor import FeatureCache, execute, grounding_result
from .expression import (
    ExpressionError,
    expression_from_dict,
    normalize_relation_name,
    relation_arity,
    serialize_expression,
)
from .optimizer import (
    MutationSource,
    OptimizerConfig,
    default_example_graph,
    load_suite,
    optimize_encoder,
)
from .registry import EncoderRegistry, load_registry, save_registry
from .scene import load_scene


class CliError(InputError):
    """Input validation failure at the command level (exit code 2)."""


def _resolve(args: argparse.Namespace, config: dict, key: str, default=None, required=False):
    """flags > config > defaults; flag values of None mean "not given"."""
    value = getattr(args, key, None)
    if value is None:
        value = config.get(key, default)
    if required and value is None:
        raise CliError(f"missing required option --{key.replace('_', '-')}")
    return value


def _resolve_number(args: argparse.Namespace, config: dict, key: str, default, kind=int):
    """:func:`_resolve` converted by ``kind``; a bool, a value ``kind``
    rejects (a config's ``"abc"``) or a fraction for an int (a config's
    ``2.9``, where ``3.0`` is 3) is a CliError."""
    value = _resolve(args, config, key, default)
    flag = f"--{key.replace('_', '-')}"
    if kind is int and isinstance(value, float) and not value.is_integer():
        raise CliError(f"{flag} must be a whole number, got {value!r}")
    if not isinstance(value, bool):
        with contextlib.suppress(TypeError, ValueError, OverflowError):
            return kind(value)
    raise CliError(f"{flag} must be a number, got {value!r}")


def _resolve_path(args: argparse.Namespace, config: dict, key: str,
                  required=False) -> str | None:
    """:func:`_resolve` for a file or directory option; a value that is not
    a string (a config's ``5``, ``["x"]`` or ``{}``) is a CliError."""
    value = _resolve(args, config, key, required=required)
    if value is not None and not isinstance(value, str):
        raise CliError(f"--{key.replace('_', '-')} must be a path string, got {value!r}")
    return value


def _output_path(args: argparse.Namespace, config: dict, key: str, directory=False,
                 required=False) -> str | None:
    """:func:`_resolve_path` for a file (with ``directory``, a directory) the
    command writes; an existing path of the other kind, or a file whose
    parent directory does not exist, is a CliError before any work, so a
    run does not fail only when it writes. A directory's missing parents
    are created when it is written."""
    value = _resolve_path(args, config, key, required=required)
    if value:
        path = Path(value)
        if path.exists() and path.is_dir() != directory:
            raise CliError(f"--{key} {value} is {'a file' if directory else 'a directory'}")
        if not directory and not path.parent.is_dir():
            raise CliError(f"--{key} {value}: no directory {path.parent}")
    return value


def _write_or_print(text: str, out: str | None) -> None:
    if out:
        write_text_atomic(out, text)
    else:
        sys.stdout.write(text)


def cmd_parse(args: argparse.Namespace, config: dict) -> int:
    out = _output_path(args, config, "out")
    offline = _resolve_path(args, config, "offline_expr")
    infile = _resolve_path(args, config, "infile")
    utterance = _resolve(args, config, "utterance")
    if offline:
        expr = load_json(offline, ExpressionError, expression_from_dict)
        _write_or_print(serialize_expression(expr) + "\n", out)
        return 0
    if infile:
        exprs = load_lines(infile, ExpressionError, expression_from_dict)
        if not exprs:
            raise ExpressionError(f"{infile}: no entries")
        _write_or_print("\n".join(serialize_expression(e) for e in exprs) + "\n", out)
        return 0
    if not utterance:
        raise CliError("need --utterance, --in, or --offline-expr")
    from .llm import EndpointConfig, LlmError, parse_utterance_via_llm

    try:
        expr = parse_utterance_via_llm(utterance, EndpointConfig.from_env())
    except (LlmError, ExpressionError) as exc:
        raise LlmError(f"could not parse utterance {utterance!r}: {exc}") from None
    _write_or_print(serialize_expression(expr) + "\n", out)
    return 0


def cmd_ground(args: argparse.Namespace, config: dict) -> int:
    scene_path = _resolve_path(args, config, "scene", required=True)
    expr_path = _resolve_path(args, config, "expr", required=True)
    registry_path = _resolve_path(args, config, "registry")
    top_k = _resolve_number(args, config, "top_k", 5)
    threshold = _resolve_number(args, config, "threshold", 0.9, float)
    out = _output_path(args, config, "out")
    if top_k < 1:
        raise CliError(f"--top-k must be at least 1, got {top_k}")
    if not math.isfinite(threshold):
        raise CliError(f"--threshold must be a finite number, got {threshold}")

    scene = load_scene(scene_path)
    expr = load_json(expr_path, ExpressionError, expression_from_dict)
    registry = load_registry(registry_path) if registry_path else EncoderRegistry()
    score = execute(expr, scene, FeatureCache(scene, registry))
    result = grounding_result(scene, expr, score, top_k=top_k, threshold=threshold)
    _write_or_print(json.dumps(result, indent=2) + "\n", out)
    return 0


def cmd_optimize(args: argparse.Namespace, config: dict) -> int:
    relation = _resolve(args, config, "relation", required=True)
    if not isinstance(relation, str):
        raise CliError(f"--relation must be a string, got {relation!r}")
    relation = normalize_relation_name(relation)
    relation_arity(relation)  # an unknown name is an ExpressionError before the suite is read
    source_kind = _resolve(args, config, "source", "mutate")
    if source_kind not in ("mutate", "llm"):  # argparse's choices guard only the flag
        raise CliError(f"unknown source {source_kind!r}; expected mutate or llm")
    suite_path = _resolve_path(args, config, "suite", required=True)
    scenes_dir = _resolve_path(args, config, "scenes", required=True)
    registry_path = _output_path(args, config, "registry", required=True)
    log_path = _output_path(args, config, "log")
    try:
        cfg = OptimizerConfig(**{key: _resolve_number(args, config, key, default) for key, default
                                 in (("n_iter", 5), ("n_sample", 5), ("top_k", 3), ("seed", 0))})
    except ValueError as exc:  # a CliError from _resolve_number too
        raise CliError(str(exc)) from None

    suite = load_suite(suite_path, scenes_dir)
    registry = load_registry(registry_path) if Path(registry_path).exists() else EncoderRegistry()
    client = None
    if source_kind == "llm":
        from .llm import EndpointConfig, LlmClient
        from .optimizer import LlmSource

        client = LlmClient(EndpointConfig.from_env())
        source = LlmSource(client=client)
    else:
        source = MutationSource()
    log: list[dict] = []
    try:
        best, history = optimize_encoder(relation, suite, source, registry, cfg,
                                         graph=default_example_graph(), log=log)
    finally:
        if client is not None:
            totals = client.ledger.totals()
            print(f"llm usage: calls={totals['calls']}, "
                  f"prompt_tokens={totals['prompt_tokens']}, "
                  f"completion_tokens={totals['completion_tokens']}, "
                  f"wall_ms={totals['wall_ms']:.1f}", file=sys.stderr)
    for iteration, rate in enumerate(history, 1):
        print(f"iteration {iteration}: best pass rate {rate:.4f}")
    save_registry(registry, registry_path)
    if log_path:
        write_text_atomic(log_path, "\n".join(json.dumps(entry) for entry in log) + "\n")
    print(f"accepted encoder for {relation!r} "
          f"(hash {best.digest()[:12]}, final pass rate {history[-1]:.4f})")
    return 0


def cmd_bench(args: argparse.Namespace, config: dict) -> int:
    dataset = _resolve_path(args, config, "dataset", required=True)
    registry_path = _resolve_path(args, config, "registry")
    workers = _resolve_number(args, config, "workers", 1)
    if workers < 1:
        raise CliError(f"--workers must be at least 1, got {workers}")
    baseline = _resolve(args, config, "baseline", False)
    if not isinstance(baseline, bool):
        raise CliError(f"--baseline must be true or false, got {baseline!r}")
    plots = _output_path(args, config, "plots", directory=True)
    out = _output_path(args, config, "out")

    registry = load_registry(registry_path) if registry_path else EncoderRegistry()
    report = run_bench(dataset, registry, workers=workers, with_baseline=baseline,
                       plots_dir=plots)
    report.config["registry"] = registry_path or "builtin"
    payload = json.dumps(report_to_dict(report), indent=2) + "\n"
    _write_or_print(payload, out)
    summary = ", ".join(f"{k}={v:.4f}" if isinstance(v, float) else f"{k}={v}"
                        for k, v in report.aggregates.items())
    print(summary, file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sceneground",
        description="Ground referring expressions in 3D box scenes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="utterance or expression file -> canonical expression")
    p.add_argument("--utterance", help="utterance to parse via the configured endpoint")
    p.add_argument("--in", dest="infile", help="JSON-lines file of expressions to canonicalize")
    p.add_argument("--offline-expr", dest="offline_expr",
                   help="pre-parsed expression file (no network)")
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("ground", help="rank scene objects against an expression")
    p.add_argument("--scene")
    p.add_argument("--expr")
    p.add_argument("--registry", help="encoder registry file (default: builtins)")
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--threshold", type=float)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.set_defaults(func=cmd_ground)

    p = sub.add_parser("optimize", help="search for a better encoder on a test suite")
    p.add_argument("--relation")
    p.add_argument("--suite")
    p.add_argument("--scenes", help="directory of scene files")
    p.add_argument("--source", choices=("mutate", "llm"))
    p.add_argument("--n-iter", dest="n_iter", type=int)
    p.add_argument("--n-sample", dest="n_sample", type=int)
    p.add_argument("--top-k", dest="top_k", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--registry", help="registry file to update")
    p.add_argument("--log", help="JSON-lines run log")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("bench", help="run a grounding benchmark directory")
    p.add_argument("--dataset")
    p.add_argument("--registry", help="encoder registry file (default: builtins)")
    p.add_argument("--workers", type=int)
    p.add_argument("--baseline", action="store_true", default=None,
                   help="include the random same-category baseline")
    p.add_argument("--plots", help="directory for CSV plot data")
    p.add_argument("--out", help="report file (default stdout)")
    p.add_argument("--config", help="JSON config file (flags take precedence)")
    p.set_defaults(func=cmd_bench)
    # one config file may serve every subcommand, so any subcommand's option is a known key
    options = {dest for command in sub.choices.values() for dest in vars(command.parse_args([]))}
    parser.set_defaults(config_keys=options - {"func", "config"})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_json(args.config, CliError, dict) if args.config else {}
        for key in config:
            if key not in args.config_keys:
                raise CliError(f"{args.config}: unknown option {key!r}")
        return args.func(args, config)
    except (OSError, ValueError, RuntimeError, MemoryError) as exc:  # LlmError: RuntimeError
        # a bare MemoryError has no text; numpy's names the allocation that failed
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2 if isinstance(exc, InputError) else 1


if __name__ == "__main__":
    sys.exit(main())
